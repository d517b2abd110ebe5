"""Generate both deployment modes for one seed and write CSV + SVG."""

from wsngen import deploy_grid, deploy_nongrid, deployment_to_csv

seed = 43
nodes = 100
area = 100.0


def deployment_to_svg(dep, path, size=480):
    """Flat SVG scatter of the deployment, one circle per node."""
    scale = size / dep.area
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    for x, y in dep.points:
        # SVG y axis points down; flip so the plot reads like a map
        cx = x * scale
        cy = size - y * scale
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


for mode, fn in (("non-grid", deploy_nongrid), ("grid", deploy_grid)):
    dep = fn(nodes, area, seed)
    print(f"{mode}: seed={seed} a={dep.params.a:.6f} c={dep.params.c:.6f}")
    for i, (x, y) in enumerate(dep.points[:4], start=1):
        print(f"  node {i}: ({x:.6f}, {y:.6f})")
    stem = f"deployment_{mode.replace('-', '_')}"
    deployment_to_csv(dep, stem + ".csv")
    deployment_to_svg(dep, stem + ".svg")
    print(f"  wrote {stem}.csv and {stem}.svg")

# same seed, same files, every run
dep_again = deploy_grid(nodes, area, seed)
assert dep_again.points == deploy_grid(nodes, area, seed).points
print("regeneration is exact")
