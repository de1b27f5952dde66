"""SL303 positive: a memory-side component cranks its clock per cycle."""


class DRAMModel:
    def __init__(self) -> None:
        self.now = 0

    def step_event(self) -> None:
        self.now += 1
