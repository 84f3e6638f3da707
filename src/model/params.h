/**
 * @file
 * Parameters of the Section II first-order model.
 *
 * The constants default to the values the paper derives from its VLSI and
 * SPICE modeling for a TSMC 65 nm LP target (Section II-B): a linear
 * voltage/frequency curve f = k1*V + k2 with f(1.0 V) = 333 MHz, a
 * [0.7 V, 1.3 V] feasible DVFS range, leakage calibrated so a big core's
 * leakage is lambda = 10% of its total nominal power, and a little core
 * leaking gamma = 25% of a big core's leakage current.
 */

#ifndef AAWS_MODEL_PARAMS_H
#define AAWS_MODEL_PARAMS_H

namespace aaws {

/**
 * First-order model parameters (Section II-A).
 *
 * Throughput and power use abstract units: IPC of the little core is 1.0
 * and the little core's dynamic energy scale alpha_little is 1.0, so all
 * results are meaningful as ratios (the only way the paper uses them).
 * The model evaluates a core class as a ClusterParams; the big and
 * little classes these fields describe are clusterParamsFor('b') and
 * clusterParamsFor('l') (model/topology.h).
 */
struct ModelParams
{
    /** V/f slope in Hz per volt (paper: 7.38e8). */
    double k1 = 7.38e8;
    /** V/f intercept in Hz (paper: -4.05e8). */
    double k2 = -4.05e8;
    /** Nominal supply voltage in volts. */
    double v_nom = 1.0;
    /** Minimum feasible supply voltage in volts. */
    double v_min = 0.7;
    /** Maximum feasible supply voltage in volts. */
    double v_max = 1.3;
    /** Energy-per-instruction ratio of big over little at nominal (alpha). */
    double alpha = 3.0;
    /** IPC ratio of big over little (beta). */
    double beta = 2.0;
    /** Average IPC of the little core (unit scale). */
    double ipc_little = 1.0;
    /** Dynamic energy coefficient of the little core (unit scale). */
    double alpha_little = 1.0;
    /** Big-core leakage power fraction of total big power at nominal. */
    double lambda = 0.1;
    /** Little-core leakage current as a fraction of big-core leakage. */
    double gamma = 0.25;
    /**
     * Dynamic-activity fraction of a core spinning in the work-stealing
     * loop relative to executing useful work.  Waiting cores rest at
     * v_min but still fetch and execute the steal loop; the loop is
     * load/branch dominated and toggles far less datapath than real work.
     */
    double waiting_activity = 0.4;

    /** Nominal frequency f(v_nom) in Hz (333 MHz with paper constants). */
    double fNom() const { return k1 * v_nom + k2; }
};

} // namespace aaws

#endif // AAWS_MODEL_PARAMS_H
