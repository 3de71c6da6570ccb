"""Render one procedural object from its viewpoint ring and dump the frames.

Walks the same path the dataset generator takes for the first object of a
class: draw its shape spec from the (seed, class, 0) seed stream, visit every
base pose, apply the multiplicative pose jitter from the (seed, class, 0, view)
stream, and rasterize. At the default --views and --jitter, frame v is view v
of that object in `generate_dataset(seed=SEED)` with its other settings at
their defaults. Frames land in OUT as PPMs you can open with any image viewer.
"""

import argparse
import os

from viapkit import prng, render


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=render.CLASS_KINDS, default="torus")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--views", type=int, default=10)
    ap.add_argument("--jitter", type=float, default=0.15)
    ap.add_argument("--out", default="demo_out/views")
    args = ap.parse_args()

    class_id = render.CLASS_KINDS.index(args.kind)
    obj_seed = prng.generate_state([args.seed, class_id, 0], 1)[0]
    spec = render.make_object(args.kind, class_id, seed=obj_seed)
    print(f"object: kind={spec.kind} size={spec.size:.3f} band_period={spec.band_period}")

    os.makedirs(args.out, exist_ok=True)
    print(f"{'view':>4} {'theta':>8} {'phi':>8} {'radius':>7}   file")
    for v, base in enumerate(render.base_viewpoints(args.views, radius=3.0)):
        rng = prng.PCG64([args.seed, class_id, 0, v])
        pose = render.sample_camera(base, args.jitter, rng, axis_restrict="theta")
        img = render.render(spec, pose)
        path = os.path.join(args.out, f"{args.kind}_{v:02d}.ppm")
        render.write_ppm(img, path)
        print(f"{v:>4} {pose.theta:8.4f} {pose.phi:8.4f} {pose.radius:7.3f}   {path}")

    print(f"\nwrote {args.views} frames; pixel range of last frame "
          f"[{img.min():.4f}, {img.max():.4f}]")


if __name__ == "__main__":
    main()
