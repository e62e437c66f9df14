"""Reference probe: a fixed piece of pure-Python work, timed between steps.

``run.py`` runs this in a fresh process before and after every timed
step and divides the step's host time by the probe's (README.md,
"Noise").  It imports nothing from ``repro``, so no change to the
program moves it; only the machine's speed does.  Its mix -- small
objects with attribute access, dict updates, integer arithmetic and a
string sort -- is the interpreter-bound kind of work the simulator
does.
"""


class Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_node):
        self.key = key
        self.value = value
        self.next = next_node


def churn(count: int) -> int:
    table: dict = {}
    head = None
    acc = 0
    for index in range(count):
        key = (index * 2654435761) & 4095
        table[key] = table.get(key, 0) + index
        head = Node(key, table[key], head if index & 7 else None)
        acc = (acc + (head.value >> 3) ^ key) & 0xFFFFFFFF
    return acc


def sort_words(count: int) -> int:
    words = [str((index * 7919) % 100003) for index in range(count)]
    words.sort()
    return len("".join(words))


def work() -> int:
    total = 0
    for _ in range(3):
        total ^= churn(60000)
        total ^= sort_words(20000)
    return total


if __name__ == "__main__":
    print(work())
