"""SL302 positive: a typo'd counter write creates an unaudited attribute."""


class SM:
    def __init__(self, stats) -> None:
        self.stats = stats

    def step_event(self) -> None:
        self.stats.instructionz += 1
        self.stats.prefetch.issuedd += 1
