#include "repro/claims.h"

namespace aaws {
namespace repro {

namespace {

/** Shorthand builders keeping the registry table readable. */

Claim
exact(const char *id, const char *source, const char *note,
      Selector where, double expected)
{
    Claim c;
    c.id = id;
    c.source = source;
    c.note = note;
    c.kind = ClaimKind::exact;
    c.where = std::move(where);
    c.expected = expected;
    c.fail_tol = 1e-9;
    return c;
}

Claim
band(const char *id, const char *source, const char *note,
     Selector where, double expected, double warn_tol, double fail_tol)
{
    Claim c;
    c.id = id;
    c.source = source;
    c.note = note;
    c.kind = ClaimKind::band;
    c.where = std::move(where);
    c.expected = expected;
    c.warn_tol = warn_tol;
    c.fail_tol = fail_tol;
    return c;
}

Claim
atLeast(const char *id, const char *source, const char *note,
        Selector where, double threshold, double slack = 0.02)
{
    Claim c;
    c.id = id;
    c.source = source;
    c.note = note;
    c.kind = ClaimKind::direction;
    c.where = std::move(where);
    c.expected = threshold;
    c.fail_tol = slack;
    c.direction = Direction::at_least;
    return c;
}

Claim
atMost(const char *id, const char *source, const char *note,
       Selector where, double threshold, double slack = 0.02)
{
    Claim c;
    c.id = id;
    c.source = source;
    c.note = note;
    c.kind = ClaimKind::direction;
    c.where = std::move(where);
    c.expected = threshold;
    c.fail_tol = slack;
    c.direction = Direction::at_most;
    return c;
}

/** table1_system_config "config" aggregate. */
Selector
config(const char *metric)
{
    return {"table1_system_config", "config", "", "", "", metric};
}

/** Model-bench aggregate (series + metric only). */
Selector
agg(const char *bench, const char *series, const char *metric)
{
    return {bench, series, "", "", "", metric};
}

/** table3_kernel_stats speedup-vs-serial-IO datapoint. */
Selector
table3Speedup(const char *kernel, const char *shape)
{
    return {"table3_kernel_stats", "vs_serial_io", kernel, shape,
            "base", "speedup"};
}

std::vector<Claim>
buildClaims()
{
    std::vector<Claim> claims;
    auto add = [&](Claim c) { claims.push_back(std::move(c)); };

    // --- Table I: system configuration constants -------------------
    // Exact by construction: these are the committed defaults the
    // whole evaluation is parameterized by; any drift is a code
    // change, not a measurement.
    add(exact("table1/v_nom", "Table I", "nominal voltage 1.0 V",
              config("v_nom"), 1.0));
    add(exact("table1/v_min", "Table I", "DVFS floor 0.7 V",
              config("v_min"), 0.7));
    add(exact("table1/v_max", "Table I", "DVFS ceiling 1.3 V",
              config("v_max"), 1.3));
    add(exact("table1/alpha", "Table I",
              "designer big/little energy ratio alpha=3",
              config("alpha"), 3.0));
    add(exact("table1/beta", "Table I",
              "designer big/little IPC ratio beta=2", config("beta"),
              2.0));
    add(exact("table1/lambda", "Table I",
              "leakage fraction lambda=0.1", config("lambda"), 0.1));
    add(exact("table1/gamma", "Table I",
              "little/big leakage current gamma=0.25", config("gamma"),
              0.25));
    add(exact("table1/f_nominal", "Table I", "f(V_N) = 333 MHz",
              config("f_nominal_mhz"), 333.0));
    add(exact("table1/regulator_step", "Table I",
              "regulator 40 ns per 0.05 V step",
              config("regulator_ns_per_step"), 40.0));

    // --- Fig. 2: pareto frontier direction checks ------------------
    const char *fig2 = "fig02_pareto_frontier";
    add(atLeast("fig2/perf", "Fig. 2",
                "best isopower point improves performance",
                agg(fig2, "best_isopower", "perf"), 1.0));
    add(atLeast("fig2/efficiency", "Fig. 2",
                "best isopower point improves efficiency",
                agg(fig2, "best_isopower", "efficiency"), 1.0));
    add(atMost("fig2/power", "Fig. 2",
               "best isopower point stays within nominal power",
               agg(fig2, "best_isopower", "power"), 1.0));
    add(atMost("fig2/v_big", "Fig. 2",
               "isopower tuning lowers the big-core voltage",
               agg(fig2, "best_isopower", "v_big"), 1.0));
    add(atLeast("fig2/v_little", "Fig. 2",
                "isopower tuning raises the little-core voltage",
                agg(fig2, "best_isopower", "v_little"), 1.0));

    // --- Fig. 3: HP-region operating points ------------------------
    const char *fig3 = "fig03_marginal_utility_hp";
    add(band("fig3/optimal_v_big", "Fig. 3", "optimal V_B = 0.86 V",
             agg(fig3, "hp_operating_point", "optimal_v_big"), 0.86,
             0.05, 0.10));
    add(band("fig3/optimal_v_little", "Fig. 3",
             "optimal V_L = 1.44 V",
             agg(fig3, "hp_operating_point", "optimal_v_little"), 1.44,
             0.05, 0.10));
    add(band("fig3/optimal_speedup", "Fig. 3",
             "optimal HP speedup 1.12x",
             agg(fig3, "hp_operating_point", "optimal_speedup"), 1.12,
             0.02, 0.10));
    add(band("fig3/feasible_v_big", "Fig. 3", "feasible V_B = 0.93 V",
             agg(fig3, "hp_operating_point", "feasible_v_big"), 0.93,
             0.02, 0.10));
    add(band("fig3/feasible_v_little", "Fig. 3",
             "feasible V_L pinned at 1.30 V",
             agg(fig3, "hp_operating_point", "feasible_v_little"), 1.30,
             0.01, 0.05));
    add(band("fig3/feasible_speedup", "Fig. 3",
             "feasible HP speedup 1.10x",
             agg(fig3, "hp_operating_point", "feasible_speedup"), 1.10,
             0.02, 0.10));

    // --- Fig. 4: speedup surface designer point --------------------
    const char *fig4 = "fig04_speedup_surface";
    add(band("fig4/optimal", "Fig. 4",
             "designer point (alpha=3, beta=2) optimal 1.12x",
             agg(fig4, "designer_point", "optimal_speedup"), 1.12,
             0.02, 0.10));
    add(band("fig4/feasible", "Fig. 4",
             "designer point (alpha=3, beta=2) feasible 1.10x",
             agg(fig4, "designer_point", "feasible_speedup"), 1.10,
             0.02, 0.10));

    // --- Fig. 5: LP-region operating points ------------------------
    const char *fig5 = "fig05_marginal_utility_lp";
    add(band("fig5/optimal_v_big", "Fig. 5", "optimal V_B = 1.02 V",
             agg(fig5, "lp_operating_point", "optimal_v_big"), 1.02,
             0.03, 0.10));
    add(band("fig5/optimal_v_little", "Fig. 5",
             "optimal V_L = 1.70 V",
             agg(fig5, "lp_operating_point", "optimal_v_little"), 1.70,
             0.05, 0.10));
    add(band("fig5/optimal_speedup", "Fig. 5",
             "optimal LP speedup 1.55x",
             agg(fig5, "lp_operating_point", "optimal_speedup"), 1.55,
             0.02, 0.10));
    add(band("fig5/feasible_v_big", "Fig. 5", "feasible V_B = 1.16 V",
             agg(fig5, "lp_operating_point", "feasible_v_big"), 1.16,
             0.02, 0.10));
    add(band("fig5/feasible_v_little", "Fig. 5",
             "feasible V_L pinned at 1.30 V",
             agg(fig5, "lp_operating_point", "feasible_v_little"), 1.30,
             0.01, 0.05));
    add(band("fig5/feasible_speedup", "Fig. 5",
             "feasible LP speedup 1.45x",
             agg(fig5, "lp_operating_point", "feasible_speedup"), 1.45,
             0.02, 0.10));
    add(band("fig5/single_little_v", "Sec. II-D",
             "single task on little: optimal V_L = 2.59 V",
             agg(fig5, "single_task", "little_optimal_v"), 2.59, 0.05,
             0.15));
    add(band("fig5/single_little_speedup", "Sec. II-D",
             "single task on little: feasible speedup 1.6x",
             agg(fig5, "single_task", "little_speedup"), 1.6, 0.06,
             0.15));
    add(band("fig5/single_big_v", "Sec. II-D",
             "single task on big: optimal V_B = 1.51 V",
             agg(fig5, "single_task", "big_optimal_v"), 1.51, 0.04,
             0.15));
    add(band("fig5/single_big_speedup", "Sec. II-D",
             "single task on big: 3.3x vs little at V_N",
             agg(fig5, "single_task", "big_speedup"), 3.3, 0.02,
             0.15));

    // --- Fig. 7: radix-2 variant profiles --------------------------
    add(band("fig7/psm_norm_time", "Fig. 7",
             "base+psm normalized time 0.76 (24% reduction)",
             {"fig07_radix2_profiles", "profile", "radix-2", "4B4L",
              "base+psm", "norm_time"},
             0.76, 0.08, 0.25));

    // --- Fig. 8: base+psm speedup aggregates -----------------------
    const char *fig8 = "fig08_exec_breakdown";
    add(band("fig8/4B4L_min", "Fig. 8", "4B4L min speedup 1.02x",
             {fig8, "psm_speedup", "", "4B4L", "base+psm", "min"},
             1.02, 0.06, 0.15));
    add(band("fig8/4B4L_median", "Fig. 8",
             "4B4L median speedup 1.10x",
             {fig8, "psm_speedup", "", "4B4L", "base+psm", "median"},
             1.10, 0.06, 0.15));
    add(band("fig8/4B4L_max", "Fig. 8", "4B4L max speedup 1.32x",
             {fig8, "psm_speedup", "", "4B4L", "base+psm", "max"},
             1.32, 0.15, 0.30));
    add(atLeast("fig8/4B4L_no_slowdown", "Fig. 8 / Sec. V-B",
                "no kernel slows down under base+psm (4B4L)",
                {fig8, "psm_speedup", "", "4B4L", "base+psm", "min"},
                1.0));
    add(atLeast("fig8/1B7L_no_slowdown", "Fig. 8 / Sec. V-B",
                "no kernel slows down under base+psm (1B7L)",
                {fig8, "psm_speedup", "", "1B7L", "base+psm", "min"},
                1.0));
    add(atLeast("fig8/1B7L_median", "Fig. 8 / Sec. V-B",
                "1B7L median speedup is substantial (no aggregate "
                "published; direction only)",
                {fig8, "psm_speedup", "", "1B7L", "base+psm", "median"},
                1.05));

    // --- Fig. 9: efficiency-vs-performance scatter -----------------
    const char *fig9 = "fig09_energy_vs_perf";
    add(atLeast("fig9/improved", "Fig. 9",
                "at least 21 of 22 kernels improve efficiency",
                agg(fig9, "psm_summary", "improved"), 21.0, 0.0));
    add(band("fig9/median_efficiency", "Fig. 9",
             "median efficiency gain 1.11x",
             agg(fig9, "psm_summary", "median_efficiency"), 1.11, 0.05,
             0.15));
    add(band("fig9/max_efficiency", "Fig. 9",
             "max efficiency gain 1.53x (known deviation: first-order "
             "waiting-power model compresses the headroom; "
             "EXPERIMENTS.md)",
             agg(fig9, "psm_summary", "max_efficiency"), 1.53, 0.10,
             0.30));
    add(band("fig9/median_perf", "Fig. 9",
             "median performance gain tracks Fig. 8 median 1.10x",
             agg(fig9, "psm_summary", "median_perf"), 1.10, 0.06,
             0.15));

    // --- Table III: measured speedups vs serial I/O ----------------
    add(band("table3/4B4L/matmul", "Table III",
             "matmul 4B4L speedup 17.4x",
             table3Speedup("matmul", "4B4L"), 17.4, 0.15, 0.30));
    add(band("table3/4B4L/dict", "Table III",
             "dict 4B4L speedup 8.8x", table3Speedup("dict", "4B4L"),
             8.8, 0.10, 0.30));
    add(band("table3/4B4L/qsort-1", "Table III",
             "qsort-1 4B4L speedup 5.4x",
             table3Speedup("qsort-1", "4B4L"), 5.4, 0.10, 0.30));
    add(band("table3/4B4L/bfs-d", "Table III",
             "bfs-d 4B4L speedup 6.5x", table3Speedup("bfs-d", "4B4L"),
             6.5, 0.15, 0.30));
    add(band("table3/4B4L/hull", "Table III",
             "hull 4B4L speedup 9.8x", table3Speedup("hull", "4B4L"),
             9.8, 0.05, 0.30));
    add(band("table3/1B7L/matmul", "Table III",
             "compute-bound matmul saturates 1B7L's 9 little-core "
             "equivalents (7 littles + 1 big at beta=2)",
             table3Speedup("matmul", "1B7L"), 9.0, 0.05, 0.20));

    // --- Sec. IV-D: sensitivity studies ----------------------------
    add(atMost("sens/dvfs_transition", "Sec. IV-D",
               "DVFS transition cost 40->250 ns: < 2% impact",
               agg("sens_dvfs_transition", "summary",
                   "worst_slowdown_pct"),
               2.0, 0.0));
    add(atMost("sens/dvfs_rate", "Sec. IV-D",
               "DVFS transitions stay rare (paper avg 0.2 per 10 us)",
               agg("sens_dvfs_transition", "summary",
                   "max_transitions_per_10us"),
               2.0, 0.0));
    add(atMost("sens/mug_latency", "Sec. IV-D",
               "mug interrupt latency 20->1000 cycles: < 1% impact",
               agg("sens_mug_latency", "summary", "worst_slowdown_pct"),
               1.0, 0.0));
    add(atMost("sens/mug_rate", "Sec. IV-D",
               "mug rate < 40 per Minstr",
               agg("sens_mug_latency", "summary", "max_mugs_per_minstr"),
               40.0, 0.0));
    add(atMost("sens/steal_cost", "extension",
               "steal-attempt cost 10->120 cycles: < 2% impact",
               agg("sens_steal_cost", "summary", "worst_slowdown_pct"),
               2.0, 0.0));

    // --- Sec. III-C: ablation medians ------------------------------
    const char *abl = "ablation_victim_biasing";
    add(atMost("ablation/random_victim", "Sec. IV-C",
               "occupancy victim selection never hurts (median)",
               agg(abl, "summary", "median_random_victim"), 1.05));
    add(atMost("ablation/no_biasing", "Sec. III-C",
               "work-biasing benefit ~1%, never hurts (median)",
               agg(abl, "summary", "median_no_biasing"), 1.02));
    add(atMost("ablation/no_serial_sprint", "Sec. III-C",
               "serial-sprinting benefit ~1-2% (median)",
               agg(abl, "summary", "median_no_serial_sprint"), 1.02));

    // --- Sec. IV-E: component energy model cross-check -------------
    add(band("energy/alpha_agreement", "Sec. IV-E",
             "component-model alpha agrees with Table III ERatio "
             "(median ratio; known deviation 1.15, EXPERIMENTS.md)",
             agg("energy_component_model", "alpha_agreement",
                 "median_ratio"),
             1.0, 0.10, 0.30));

    // --- Fig. 1: activity profile shape ----------------------------
    add(atLeast("fig1/hp_dominant", "Fig. 1",
                "hull on baseline 4B4L is HP-dominated",
                {"fig01_activity_profile", "regions", "hull", "4B4L",
                 "base", "hp_pct"},
                50.0, 0.0));
    add(atMost("fig1/serial_small", "Fig. 1",
               "serial region is a small fraction",
               {"fig01_activity_profile", "regions", "hull", "4B4L",
                "base", "serial_pct"},
               20.0, 0.0));

    // --- Extension: AAWS benefit grows with machine size -----------
    add(atLeast("ext/qsort1_8B8L", "extension",
                "qsort-1 base+psm speedup grows to ~1.48x at 8B8L",
                {"ext_scaling", "vs_base", "qsort-1", "8B8L",
                 "base+psm", "speedup"},
                1.3, 0.0));
    add(atLeast("ext/qsort1_eff_8B8L", "extension",
                "qsort-1 base+psm improves perf-per-joule at 8B8L",
                {"ext_scaling", "vs_base", "qsort-1", "8B8L",
                 "base+psm", "efficiency_gain"},
                1.0, 0.0));

    // --- Open-loop serving: tail latency under arrival-driven load -
    // The serving scenario has no direct figure in the paper; the
    // claims are the queueing-theoretic consequences of Section V's
    // per-request results (shorter service times compound through the
    // queue into tail wins) plus exact conservation properties of the
    // serving harness itself, on both engines.
    const char *serve = "serve_tail_latency";
    add(atMost("serve/sim_ps_p99_u70", "Sec. V-C",
               "work-sprinting cuts p99 vs the ASYM baseline at 70% "
               "utilization (Poisson arrivals, sim engine)",
               {serve, "sim_poisson_u70", "dict", "4B4L", "base+ps",
                "p99_vs_base"},
               1.0, 0.0));
    add(atMost("serve/sim_psm_p99_u70", "Sec. V-C",
               "full AAWS (base+psm) cuts p99 vs the ASYM baseline at "
               "70% utilization (Poisson arrivals, sim engine)",
               {serve, "sim_poisson_u70", "dict", "4B4L", "base+psm",
                "p99_vs_base"},
               1.0, 0.0));
    add(atLeast("serve/sim_tail_ratio_u70", "queueing sanity",
                "p99 dominates p50 under load (histogram sanity)",
                {serve, "sim_poisson_u70", "dict", "4B4L", "base",
                 "tail_ratio"},
                1.0, 0.0));
    add(atLeast("serve/sim_completed_u30", "queueing sanity",
                "at 30% utilization the bounded queue sheds (almost) "
                "nothing",
                {serve, "sim_poisson_u30", "dict", "4B4L", "base",
                 "completed_fraction"},
                0.99, 0.01));
    add(atLeast("serve/mmpp_tail_vs_poisson_u50", "Sec. II",
                "bursty (MMPP) arrivals at the same mean rate have "
                "heavier tails than Poisson",
                agg(serve, "sim_summary", "mmpp_tail_vs_poisson_u50"),
                1.0, 0.0));
    add(exact("serve/sim_conservation_u70", "harness invariant",
              "sim engine: shed + completed == submitted",
              {serve, "sim_poisson_u70", "dict", "4B4L", "base",
               "accounting_gap"},
              0.0));
    add(exact("serve/native_conservation_u70", "harness invariant",
              "native engine: shed + completed == submitted",
              {serve, "native_poisson_u70", "dict", "4B4L", "base",
               "accounting_gap"},
              0.0));
    add(exact("serve/native_chan_conservation_u70", "harness invariant",
              "native engine on the channel backend: shed + completed "
              "== submitted",
              {serve, "native_chan_poisson_u70", "dict", "4B4L", "base",
               "accounting_gap"},
              0.0));

    // --- Backend shootout: channel runtime vs Chase-Lev deques ------
    // The paper's runtime is deque-based; the channel backend
    // (steal-requests, steal-half, lifelines — after Acar et al. and
    // Prell) must reproduce the same results and stay in the same
    // performance regime.  The fib metrics are structural protocol
    // invariants (robust to hosts where no steal ever fires: a
    // steal-free run defines tasks-per-steal as 1.0); the median
    // ratio is wall-clock with a deliberately generous band for noisy
    // shared runners.
    const char *t2 = "table2_native_runtime";
    add(exact("shootout/fib_result_ok", "backend extension",
              "fine-grained fib computes the right value on every "
              "channel steal kind",
              agg(t2, "fib", "result_ok"), 1.0));
    add(exact("shootout/fib_steal_one_unit", "backend extension",
              "steal-one grants carry exactly one task per successful "
              "steal",
              agg(t2, "fib", "tasks_per_steal_one"), 1.0));
    add(atLeast("shootout/fib_steal_half_batches", "backend extension",
                "steal-half moves at least as many tasks per "
                "successful steal as steal-one on fine-grained fib",
                agg(t2, "fib", "tasks_per_steal_ratio"), 1.0, 0.0));
    add(atMost("shootout/chan_vs_ws_median", "backend extension",
               "channel backend stays in the deque backend's "
               "performance regime on the Table II kernels (median "
               "time ratio; generous band for shared runners)",
               agg(t2, "summary", "median_chan_vs_ws"), 1.5, 1.0));

    // --- N-cluster topology extension (ext_asymmetry) ---------------
    // The paper's techniques must keep paying off on machines the paper
    // never modeled — here a three-cluster 2B2M4L alongside 4B4L and
    // 1B7L.  The summary metrics are minima over every (kernel,
    // topology) cell, so one regressing cell fails the gate.
    const char *ea = "ext_asymmetry";
    add(atLeast("ext_asym/psm_speedup_all_topologies",
                "topology extension",
                "base+psm speeds up every kernel on every topology "
                "preset (worst cell; measured 1.11x on 1b7l radix-2)",
                agg(ea, "summary", "min_psm_speedup"), 1.05));
    add(atLeast("ext_asym/psm_efficiency_all_topologies",
                "topology extension",
                "base+psm improves perf-per-joule in every (kernel, "
                "topology) cell (worst cell; measured 1.06e)",
                agg(ea, "summary", "min_psm_efficiency_gain"), 1.02));

    return claims;
}

} // namespace

const std::vector<Claim> &
paperClaims()
{
    static const std::vector<Claim> claims = buildClaims();
    return claims;
}

const char *
claimKindName(ClaimKind kind)
{
    switch (kind) {
    case ClaimKind::exact:
        return "exact";
    case ClaimKind::band:
        return "band";
    case ClaimKind::direction:
        return "direction";
    }
    return "?";
}

} // namespace repro
} // namespace aaws
