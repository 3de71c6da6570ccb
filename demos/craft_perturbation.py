"""Craft one view-invariant perturbation and watch it transfer across views.

The delta is optimized only on an object's training views, then applied,
unchanged, to held-out views of the same object. The fgsm-mean column is the
obvious per-image recipe for a universal noise — average the object's
per-view FGSM deltas and reuse that — and it is the natural foil: the sign
patterns decorrelate across poses, so their mean is incoherent, while the
shared-gradient delta was a single pattern to begin with.
"""

import argparse
import os

import numpy as np

from viapkit import attacks, nn, render
from viapkit import train as train_mod


def true_softmax(params, images, labels):
    probs = nn.softmax(nn.forward(params, images))
    return probs[np.arange(len(labels)), labels]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weights", default=None, help="trained weights (else trains here)")
    ap.add_argument("--object", type=int, default=8)
    ap.add_argument("--eps", type=float, default=5.0, help="budget, 0-255 scale")
    ap.add_argument("--iters", type=int, default=20)
    ap.add_argument("--out", default="demo_out/perturbation")
    args = ap.parse_args()

    ds = render.generate_dataset(seed=7)
    if args.weights:
        params = nn.load_params(args.weights)
    else:
        params, _ = train_mod.train(train_mod.init_params(0), ds.images, ds.labels,
                                    train_mod.TrainConfig(), ds.indices("train"))

    tr = ds.indices("train", object_id=args.object)
    te = ds.indices("test", object_id=args.object)
    label = int(ds.labels[tr[0]])
    print(f"object {args.object} (class {label}, {render.CLASS_KINDS[label]}): "
          f"{len(tr)} crafting views, {len(te)} held out, eps={args.eps:g}/255")

    cfg = attacks.AttackConfig(family="viap", eps=args.eps, iterations=args.iters)

    def progress(n, delta, loss, g):
        if (n + 1) % 5 == 0 or n == 0:
            print(f"  iter {n + 1:>3}  batch loss {loss:.4f}  |delta|_inf "
                  f"{np.abs(delta).max() * 255:.2f}/255")

    xc, yc = ds.images[tr], ds.labels[tr]
    delta = attacks.viap_arrays(params, xc, yc, cfg, trace=progress)
    loss, _ = nn.softmax_cross_entropy(nn.forward(params, attacks.apply_delta(delta, xc)), yc)
    pert = attacks.Perturbation(delta, cfg, ds.view_ids[tr].tolist(), loss)

    # per-image baseline: mean of the crafting views' own FGSM deltas
    _, fgsm_delta = attacks.craft(params, xc, yc, attacks.AttackConfig(family="fgsm", eps=args.eps))

    print(f"\n{'view':>6} {'split':>6} {'clean':>8} {'viap':>8} {'fgsm-mean':>9}")
    for idx, split in ((tr, "train"), (te, "test")):
        x, y = ds.images[idx], ds.labels[idx]
        clean = true_softmax(params, x, y)
        adv = true_softmax(params, pert.apply(x), y)
        carried = true_softmax(params, attacks.apply_delta(fgsm_delta, x), y)
        for v, view_id in enumerate(ds.view_ids[idx]):
            print(f"{view_id:>6} {split:>6} {clean[v]:8.4f} {adv[v]:8.4f} "
                  f"{carried[v]:9.4f}")

    os.makedirs(args.out, exist_ok=True)
    attacks.save_perturbation(pert, os.path.join(args.out, "delta.viapdlt"))
    x = ds.images[te[0]]
    render.write_ppm(x, os.path.join(args.out, "clean.ppm"))
    render.write_ppm(pert.apply(x), os.path.join(args.out, "adv.ppm"))
    # the raw field is tiny; rescale to full range so it is visible at all
    d = pert.delta
    render.write_ppm((d - d.min()) / max(np.ptp(d), 1e-12),
                     os.path.join(args.out, "delta_rescaled.ppm"))
    print(f"\nartifacts -> {args.out}")


if __name__ == "__main__":
    main()
