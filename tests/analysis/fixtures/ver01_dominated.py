"""VER01 fixture: writes dominated by a verification call.  Enough for
the gateway's replica switch; not for the superlight client, whose
state has one producer (the adoption core), verified or not."""


class ClientState:
    def __init__(self, header=None) -> None:
        self.header = header


class Shell:
    def switch(self, replica) -> None:
        self._ensure_verified(replica)
        self.current = replica

    def adopt(self, header, cert) -> None:
        self.verify_certificate(cert)
        self.state = ClientState(header=header)
