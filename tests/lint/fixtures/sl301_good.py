"""SL301 negative: the clock moves only in __init__/step_event/reset."""


class Component:
    def __init__(self) -> None:
        self.now = 0

    def step_event(self) -> None:
        self.now += 1

    def reset(self) -> None:
        self.now = 0
