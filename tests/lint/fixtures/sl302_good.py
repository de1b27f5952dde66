"""SL302 negative: every stats write targets a declared counter."""


class SM:
    def __init__(self, stats) -> None:
        self.stats = stats

    def step_event(self) -> None:
        self.stats.instructions += 1
        self.stats.prefetch.issued += 1
