"""Sampler efficiency in four currencies, on real synthesis requests.

Every row times ``run_eaas`` requests with the tiny conv net on the
same seeds, so each places the same crops and nodules and only the
solver differs.  NFE and the conv FLOPs actually evaluated are read
from each request's provenance; peak allocation comes from one untimed
traced request.  The structural facts: the 10-step multistep sampler
consumes 11 evaluations where the ancestral baseline needs one per
step (100 here, to keep the demo short), and evaluating only the
nodule's region instead of the whole patch cuts the FLOPs of every
evaluation.
"""

from dataclasses import replace

from nodulesynth import (EaasRequest, SolverConfig, TinyConvPredictor,
                         compare, estimate_flops, make_phantom, make_schedule,
                         run_bench)
from nodulesynth.bench import format_table, tiny_conv_arch

arch = tiny_conv_arch()
print(f"FLOPs/eval at 64^3:  {estimate_flops(arch, (64,) * 3):.3e}")
print(f"FLOPs/eval at 128^3: {estimate_flops(arch, (128,) * 3):.3e}  "
      f"(ratio {estimate_flops(arch, (128,) * 3) / estimate_flops(arch, (64,) * 3)})")

reference, lung_layout = make_phantom(0, (32,) * 3)
request = EaasRequest(reference=reference, lung_layout=lung_layout,
                      predictor=TinyConvPredictor(seed=0),
                      schedule=make_schedule("cosine", 1000),
                      patch_size=(16,) * 3)
rows = [
    ("ancestral-100-full",
     SolverConfig(method="ancestral", steps=100, blend_mode="init_only")),
    ("dpm2-10-full", SolverConfig(steps=10, blend_mode="init_only")),
    ("dpm2-10-region", SolverConfig(steps=10)),
]
reports = [run_bench(name, replace(request, solver=cfg), n_trials=3)
           for name, cfg in rows]
print()
print(format_table(reports))
print()
for row in compare(reports)[1:]:
    print(f"{row['config']} vs {reports[0].config}: "
          f"{row['nfe_ratio']:.1f}x fewer evaluations, "
          f"{row['flops_ratio']:.1f}x fewer FLOPs, "
          f"{row['speed_ratio']:.1f}x wall-clock speedup")
