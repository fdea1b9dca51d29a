"""VER01 clean fixture: client state only ever comes from the core."""


class ClientState:
    def __init__(self, header=None) -> None:
        self.header = header


def adopt_bundle(state, bundle):
    if bundle.certificate is None:
        raise ValueError("no certificate")
    return ClientState(header=bundle.header)


class SuperlightClient:
    def __init__(self) -> None:
        self.state = ClientState()

    def adopt(self, bundle) -> None:
        self.state = adopt_bundle(self.state, bundle)
