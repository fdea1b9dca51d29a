"""VER01 fixture: writes dominated by a verification call.  Enough for
a verified-answer cache admit; not for the superlight client's state,
which has one producer (the adoption core), verified or not."""


class ClientState:
    def __init__(self, header=None) -> None:
        self.header = header


class Shell:
    def admit(self, payload, answer) -> None:
        self.verify_answer(answer)
        self.cache.put(payload, answer)

    def adopt(self, header, cert) -> None:
        self.verify_certificate(cert)
        self.state = ClientState(header=header)
