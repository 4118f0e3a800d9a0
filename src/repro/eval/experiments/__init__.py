"""Per-table / per-figure experiment modules (paper §6).

Every module exposes a ``run(...)`` returning a structured result with a
``render()`` method that prints the same rows/series the paper reports:

================  =========================================================
Module            Paper artifact
================  =========================================================
fig7_thresholds   Fig. 7 — Pc vs τl and τh
table2_weights    Table 2 — Pf per room-affinity weight combination
fig8_history      Fig. 8 — Pc/Pf/Po vs weeks of historical data
fig9_caching      Fig. 9 — precision with vs without caching
table3_baselines  Table 3 — Pc|Pf|Po per predictability group vs baselines
table4_scenarios  Table 4 — precision per profile on simulated scenarios
fig10_efficiency  Fig. 10 — avg time/query vs #processed queries
fig11_stopcond    Fig. 11 — stop conditions on vs off
fig12_scalability Fig. 12 — caching on vs off (D-LOCATER)
================  =========================================================
"""

from repro.eval.experiments import common

__all__ = ["common"]
