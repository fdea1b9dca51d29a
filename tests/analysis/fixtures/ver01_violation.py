"""VER01 fixture: trusted-state adoption with no verification."""


class SuperlightClient:
    def __init__(self) -> None:
        self.state = None

    def adopt(self, header) -> None:
        self.state = header
