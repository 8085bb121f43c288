"""Unit tests for the blocking queue."""

from repro.sim import BlockingQueue, QueueClosed


# ----------------------------------------------------------------------
# BlockingQueue
# ----------------------------------------------------------------------
def test_queue_fifo_order(env):
    queue = BlockingQueue(env)
    out = []

    def consumer(env):
        for _ in range(3):
            item = yield queue.get()
            out.append(item)

    def producer(env):
        for item in (1, 2, 3):
            yield env.timeout(1.0)
            queue.put(item)

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert out == [1, 2, 3]


def test_queue_get_blocks_until_put(env):
    queue = BlockingQueue(env)
    times = []

    def consumer(env):
        yield queue.get()
        times.append(env.now)

    def producer(env):
        yield env.timeout(4.0)
        queue.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [4.0]




def test_queue_close_fails_blocked_getter(env):
    queue = BlockingQueue(env)
    outcome = []

    def consumer(env):
        try:
            yield queue.get()
        except QueueClosed as closed:
            outcome.append(closed.reason)

    def closer(env):
        yield env.timeout(1.0)
        queue.close("shutdown")

    env.process(consumer(env))
    env.process(closer(env))
    env.run()
    assert outcome == ["shutdown"]


def test_queue_put_after_close_fails(env):
    queue = BlockingQueue(env)
    queue.close()

    def producer(env):
        try:
            yield queue.put(1)
        except QueueClosed:
            return "refused"

    assert env.run(until=env.process(producer(env))) == "refused"


def test_queue_len(env):
    queue = BlockingQueue(env)
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2
