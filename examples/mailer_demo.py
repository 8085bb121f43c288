"""The mailer guardian of §2.1: per-stream sequencing, cross-stream
concurrency, and Argus-style exception handling.

Run:  python examples/mailer_demo.py
"""

from repro import ArgusSystem, Signal
from repro.apps import build_mailer


def main() -> None:
    system = ArgusSystem(latency=2.0, kernel_overhead=0.2)
    mailer = build_mailer(system, users=("alice", "bob"), handler_cost=1.5)
    c1 = system.create_guardian("c1")
    c2 = system.create_guardian("c2")

    def c1_main(ctx):
        send_mail = ctx.lookup("mailer", "send_mail")
        read_mail = ctx.lookup("mailer", "read_mail")
        # Stream the send; then read on the SAME stream: the read is
        # guaranteed to see the send (in-order processing per stream).
        send_mail.stream_statement("alice", "hello alice")
        messages = yield read_mail.call("alice")
        print("[%5.2f] C1 read alice's mail: %s" % (ctx.now, messages))
        # The paper's except example: read for an unknown user.
        try:
            yield read_mail.call("mallory")
        except Signal as sig:  # when no_such_user: ...
            print("[%5.2f] C1 caught %s for 'mallory'" % (ctx.now, sig.condition))

    def c2_main(ctx):
        read_mail = ctx.lookup("mailer", "read_mail")
        messages = yield read_mail.call("bob")
        print("[%5.2f] C2 read bob's mail: %s (ran concurrently with C1)"
              % (ctx.now, messages))

    p1 = c1.spawn(c1_main)
    p2 = c2.spawn(c2_main)
    for process in (p1, p2):
        system.run(until=process)
    print("\nmax concurrent handler executions at the mailer: %d"
          % mailer.state["max_concurrent"])
    print("(2 = different clients' streams overlap; within one stream,")
    print(" calls ran strictly in order)")


if __name__ == "__main__":
    main()
