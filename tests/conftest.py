import numpy as np

from evjoint.events import Events, EventWindow, SensorGeometry


def random_window(rng, width=16, height=16, n=200, t_span=0.1) -> EventWindow:
    ev = Events(
        rng.uniform(0, width, n),
        rng.uniform(0, height, n),
        np.sort(rng.uniform(0, t_span, n)),
        rng.choice(np.array([-1, 1], dtype=np.int8), n),
    )
    return EventWindow(ev, SensorGeometry(width, height), 0.0, t_span, t_span / 2.0)
