"""Job service quickstart: host the engine over HTTP, fan clients in.

Spins up the service on a background thread, then shows the three
things the job API buys over in-process calls:

1. engine-shaped results over the wire (``ServiceClient.run_many``
   matches ``Engine.run_many`` bit-for-bit);
2. in-flight dedup — several clients submitting the same grid
   concurrently cost one simulation pass;
3. a shared warm path — reruns answer from the engine memo/cache with
   ``simulations`` unchanged.

Run:  python examples/service_quickstart.py
"""

import threading

from repro.engine import Engine, Sweep
from repro.service import ServiceClient, background_server


def main() -> None:
    engine = Engine(use_cache=False)
    sweep = Sweep(benchmarks=("gsm_encode", "jpeg_encode"),
                  codings=("mom", "mom3d"), memsystems=("vector",))
    specs = sweep.specs()
    # the in-process reference, run before the server starts its
    # threads, so none of them is running when its process pool forks
    local = Engine(use_cache=False).run_many(specs)

    with background_server(engine) as server:
        print(f"service listening on {server.url}")
        client = ServiceClient(server.url)
        print(f"health: {client.health()['status']}")

        # 1. Several concurrent clients ask for the same grid...
        outcomes: list[dict] = []

        def one_client() -> None:
            outcomes.append(ServiceClient(server.url).run_many(specs))

        clients = [threading.Thread(target=one_client)
                   for _ in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()

        # 2. ...and the scheduler deduplicated them onto one pass.
        stats = client.stats()
        print(f"\n{len(clients)} clients x {len(specs)} specs -> "
              f"engine {stats['engine']['simulations']} simulations, "
              f"{stats['scheduler']['coalesced']} spec submissions "
              f"attached to in-flight work, "
              f"{stats['scheduler']['batches']} batch(es)")

        # 3. Results are the engine's, bit for bit.
        assert all(outcomes[0][s].to_dict() == local[s].to_dict()
                   for s in specs), "wire results diverged!"
        print("wire results match in-process Engine.run_many exactly")

        print(f"\n{'spec':34s} {'cycles':>8s} {'eff bw':>7s}")
        for spec in specs:
            stats_for = outcomes[0][spec]
            print(f"{spec.label():34s} {stats_for.cycles:8d} "
                  f"{stats_for.effective_bandwidth:7.2f}")


if __name__ == "__main__":
    main()
