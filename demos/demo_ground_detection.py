"""Walk through soil-surface detection on a synthetic potted-plant scene.

The detector never sees the truth: it filters the raw cloud to the
workspace above the pot, narrows in on the soil surface with a shrinking
vertical-band search, fits a plane with RANSAC, and reports the surface
center, the nearest reachable point, and the probing approach point.

Run:  python demos/demo_ground_detection.py [--plot] [--seed N]
"""

import argparse

import numpy as np

from soilprobe import (
    BAND_WIDTHS,
    detect_ground,
    estimate_to_text,
    generate_pot_scene,
    refinement_history,
    scene_bounds,
    workspace_filter,
)
from soilprobe.scene import SOIL_Z


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0, help="scene RNG seed")
    ap.add_argument("--plot", action="store_true", help="show a 3-D scatter (needs matplotlib)")
    args = ap.parse_args()

    # -- 1. make a scene: pot, rough soil, rim, wall, foliage, table clutter
    cloud, truth = generate_pot_scene(seed=args.seed)
    print(f"scene: {len(cloud)} points, true soil plane at z = {SOIL_Z:.4f} m")

    # -- 2. crop to the reachable workspace above the pot
    bounds = scene_bounds()
    inside = workspace_filter(cloud, bounds)
    print(f"workspace filter: {len(inside)} points kept "
          f"({len(cloud) - len(inside)} clutter points dropped)")

    # -- 3. shrinking-band search: each pass re-bins the surviving band
    #       with a finer vertical resolution and keeps the bin whose
    #       population stands out most from its neighbours
    history = refinement_history(inside)
    print(f"band refinement: {len(history)} passes "
          f"(bin widths {', '.join(f'{w * 100:.2f}' for w in BAND_WIDTHS)} cm)")
    for k, (w, idx) in enumerate(zip(BAND_WIDTHS, history)):
        z = inside.points[idx, 2]
        print(f"  pass {k}: width {w * 100:5.2f} cm -> {len(idx):4d} points, "
              f"z in [{z.min():.4f}, {z.max():.4f}]")

    # -- 4. full pipeline call (filter + refine + RANSAC + extraction)
    est = detect_ground(cloud, bounds, seed=args.seed)
    print("\nestimate record:")
    print(estimate_to_text(est))

    # -- 5. compare against the generator's ground truth
    z_err = est.center.z - truth.center.z
    tilt = np.degrees(np.arccos(np.clip(est.plane.normal[2], -1.0, 1.0)))
    print(f"surface height error: {z_err * 1000:+.3f} mm")
    print(f"plane tilt from horizontal: {tilt:.3f} deg")
    print(f"approach point sits {est.approach.y - est.near_point.y:.3f} m "
          f"outside the nearest soil point")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping plot")
            return
        fig = plt.figure(figsize=(8, 6))
        ax = fig.add_subplot(projection="3d")
        ax.scatter(*cloud.points.T, s=1, c="0.8", label="raw cloud")
        ax.scatter(*inside.points[history[-1]].T, s=2, c="tab:orange", label="final band")
        sel = est.plane.inlier_indices
        ax.scatter(*inside.points[history[-1]][sel].T, s=3, c="tab:green", label="plane inliers")
        for p, m in ((est.center, "r*"), (est.near_point, "b^"), (est.approach, "ks")):
            ax.plot([p.x], [p.y], [p.z], m, markersize=10)
        ax.set_xlabel("x [m]"), ax.set_ylabel("y [m]"), ax.set_zlabel("z [m]")
        ax.legend(loc="upper left")
        plt.tight_layout()
        plt.show()


if __name__ == "__main__":
    main()
