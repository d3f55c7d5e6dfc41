"""The two passes of the density pipeline past one row block, timed at two
revisions, interleaved: pass one, the density curve, on eight cloud
shapes, and pass two, the pairs within a limit, on nine.

    python3 tools/kernel_shapes.py BASE [HEAD] [--rounds N]

Run it inside the repository; ``tools/revisions.py`` sets out BASE, HEAD,
the two workers and the interleaved rounds. Every round times each shape
once in each worker. The table gives each shape's median milliseconds
over the rounds at each revision, their ratio, and the share of the
cloud's pairs that fell back to the exact haversine at each revision
(those the chord kernel did not decide).

Pass one is ``kfunction._blocked_k_function`` over the curve source at
the pipeline's default ring width of 100 m, on a cloud whose O(n) arrays
are already built; the two curves are checked equal on every shape
before any timing. The shapes, each seeded:

- the ``large-docs`` benchmark document on seeds 42 and 7 (1,705 points);
- uniform on the sphere, 4,000 points;
- regional, 3,000 points within 10 km;
- one city block, 1,000 points within 1 km;
- two cities, 1,000 points within 5 km of each of two centres;
- 1,200 points uniform on the sphere and 500 within 1 km of one centre;
- 250 points uniform, each twice, and the antipodes of 500 of them,
  nudged by up to half a metre, 1,000 points.

Pass two drains the edge source, ``geo._pairs_within(cloud, limit)()``,
on the same kind of built cloud; its pair counts are checked equal on
every shape before any timing. The second table gives each shape's median
milliseconds at each revision, their ratio and the number of pairs. The
shapes, each seeded:

- the ``large-docs`` document on seeds 42 and 7 at 2 km, about its
  pipeline threshold;
- the uniform 4,000 points above at 3,000, 8,000 and 20,000 km, limits
  that reach some, most and all of the pairs;
- 3,000 points uniform in a box of 0.1 by 0.1 degrees at 45 N (11 by
  8 km) at 1, 5 and 20 km;
- 10,000 points uniform on the sphere at 300 km.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import revisions

DELTA_D = 100.0
EARTH_RADIUS_M = 6_371_000.0


def _uniform(rng, n: int) -> list[tuple[float, float]]:
    import numpy as np

    lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    return list(zip(lat.tolist(), rng.uniform(-180.0, 180.0, n).tolist()))


def _disc(rng, n: int, lat0: float, lon0: float, radius_m: float) -> list[tuple[float, float]]:
    import numpy as np

    r = radius_m * np.sqrt(rng.random(n)) / EARTH_RADIUS_M
    bearing = rng.uniform(0.0, 2.0 * math.pi, n)
    lat = lat0 + np.degrees(r * np.cos(bearing))
    lon = lon0 + np.degrees(r * np.sin(bearing)) / math.cos(math.radians(lat0))
    return list(zip(lat.tolist(), lon.tolist()))


def shapes() -> dict[str, list[tuple[float, float]]]:
    """The eight clouds, as (lat, lon) lists."""
    import numpy as np
    from densityk.corpus import to_point_cloud
    from densityk.synth import SynthSpec, synth_generate

    clouds = {}
    for seed in (42, 7):
        spec = SynthSpec(n_docs=1, mentions_per_doc=55, decoys_per_mention=(30, 30), seed=seed)
        cloud = to_point_cloud(synth_generate(spec)[0])
        clouds[f"large-docs seed {seed}"] = [(p.location.lat, p.location.lon) for p in cloud.points]
    rng = np.random.default_rng(24)
    clouds["uniform 4,000"] = _uniform(rng, 4000)
    clouds["regional 3,000 in 10 km"] = _disc(rng, 3000, 45.0, 7.0, 10_000.0)
    clouds["city block 1,000 in 1 km"] = _disc(rng, 1000, 48.85, 2.35, 1_000.0)
    clouds["two cities 2 x 1,000"] = _disc(rng, 1000, 48.85, 2.35, 5_000.0) + _disc(rng, 1000, -33.9, 151.2, 5_000.0)
    clouds["global 1,200 + 500 in 1 km"] = _uniform(rng, 1200) + _disc(rng, 500, 10.0, 20.0, 1_000.0)
    base = _uniform(rng, 250)
    nudge = math.degrees(0.5 / EARTH_RADIUS_M)
    antipodes = [(-lat + nudge * k / 500, lon + 180.0 + nudge * k / 500) for k, (lat, lon) in enumerate(base * 2)]
    clouds["duplicates + antipodes 1,000"] = base * 2 + antipodes
    return clouds


def pass_two_shapes(clouds: dict[str, list[tuple[float, float]]]) -> dict[str, tuple[list[tuple[float, float]], float]]:
    """The nine pass-two shapes, by name: the cloud, as (lat, lon) lists,
    and the limit in meters, over :func:`shapes`' ``clouds`` and two more."""
    import numpy as np

    rng = np.random.default_rng(25)
    box = list(zip(rng.uniform(45.0, 45.1, 3000).tolist(), rng.uniform(7.0, 7.1, 3000).tolist()))
    uniform = _uniform(rng, 10_000)
    cases = {f"large-docs seed {seed} at 2 km": (clouds[f"large-docs seed {seed}"], 2_000.0) for seed in (42, 7)}
    cases.update({f"uniform 4,000 at {km:,} km": (clouds["uniform 4,000"], km * 1e3) for km in (3_000, 8_000, 20_000)})
    cases.update({f"box 3,000 at {km} km": (box, km * 1e3) for km in (1, 5, 20)})
    cases["uniform 10,000 at 300 km"] = (uniform, 300e3)
    return cases


def _worker(src: str) -> None:
    # Serves one revision: builds the shapes, prints their names, then
    # answers "time NAME" with pass one's milliseconds, "share NAME" with its
    # fallback share and "curve NAME" with a digest of its curve, and "drain
    # NAME" with pass two's milliseconds and "pairs NAME" with its pair count.
    sys.path.insert(0, src)
    import hashlib

    from densityk import geo
    from densityk.corpus import CloudPoint, PointCloud
    from densityk.geo import GeoPoint
    from densityk.kfunction import _blocked_k_function

    def cloud_of(coords):
        return PointCloud(tuple(CloudPoint(GeoPoint(a, b), f"p{k}", "m") for k, (a, b) in enumerate(coords)))

    coords = shapes()
    clouds = {name: cloud_of(points) for name, points in coords.items()}
    cases = {name: (cloud_of(points), limit) for name, (points, limit) in pass_two_shapes(coords).items()}

    def pass_one(cloud):
        return _blocked_k_function(len(cloud), DELTA_D, *geo._rings_within(cloud, DELTA_D, None))

    def pass_two(cloud, limit):
        return sum(len(i) for i, _ in geo._pairs_within(cloud, limit)())

    exact = geo._pair_distances

    def answer(request: str):
        command, name = request.split(" ", 1)
        if command in ("drain", "pairs"):
            start = time.perf_counter()
            pairs = pass_two(*cases[name])
            return (time.perf_counter() - start) * 1e3 if command == "drain" else pairs
        cloud = clouds[name]
        if command == "time":
            start = time.perf_counter()
            pass_one(cloud)
            return (time.perf_counter() - start) * 1e3
        if command == "share":
            fell_back = []

            def counted(*args, **kwargs):
                fell_back.append(len(args[1]))
                return exact(*args, **kwargs)

            geo._pair_distances = counted
            try:
                pass_one(cloud)
            finally:
                geo._pair_distances = exact
            n = len(cloud)
            return sum(fell_back) / (n * (n - 1) // 2)
        kf = pass_one(cloud)
        return hashlib.sha256(kf.distances_m.tobytes() + kf.densities.tobytes()).hexdigest()

    revisions.serve([list(clouds), list(cases)], answer)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1])
        return 0
    base, head, (rounds,) = revisions.command_line(__file__, argv, {"--rounds N": 15})
    with revisions.workers(__file__, base, head) as workers:
        names, cases = workers[0].first
        for name in names:
            revisions.agree([w.ask(f"curve {name}") for w in workers], f"{name}: the curves differ")
        pairs = {}
        for case in cases:
            counts = [w.ask(f"pairs {case}") for w in workers]
            pairs[case] = revisions.agree(counts, f"{case}: the pair counts differ, {counts[0]} and {counts[1]}")
        shares = {name: [w.ask(f"share {name}") for w in workers] for name in names}
        requests = [f"time {name}" for name in names] + [f"drain {case}" for case in cases]
        times = revisions.rounds(workers, rounds, requests)
    head_label = head or "working tree"
    print(f"pass one at delta_d {DELTA_D:g} m, median of {rounds} rounds, OPENBLAS_NUM_THREADS=1")
    print(f"{'shape':<30}{base[:12]:>14}{head_label[:12]:>14}{'ratio':>8}{'fallback':>12}{'fallback':>12}")
    for name in names:
        ms = [statistics.median(times[f"time {name}"][k]) for k in (0, 1)]
        share = shares[name]
        print(f"{name:<30}{ms[0]:>11.1f} ms{ms[1]:>11.1f} ms{ms[1] / ms[0]:>8.2f}{share[0]:>12.2e}{share[1]:>12.2e}")
    print()
    print(f"pass two, the pairs within a limit, median of {rounds} rounds, OPENBLAS_NUM_THREADS=1")
    print(f"{'shape':<30}{base[:12]:>14}{head_label[:12]:>14}{'ratio':>8}{'pairs':>14}")
    for case in cases:
        ms = [statistics.median(times[f"drain {case}"][k]) for k in (0, 1)]
        print(f"{case:<30}{ms[0]:>11.2f} ms{ms[1]:>11.2f} ms{ms[1] / ms[0]:>8.2f}{pairs[case]:>14,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
