/* adaptive_photonics.h — the stable C embedding ABI of the
 * adaptive-photonics engine (libaps_ffi).
 *
 * Hand-maintained against crates/ffi/src/api.rs; the library checks the
 * `struct_size` first field of every struct at the boundary, so a stale
 * header fails with APS_STATUS_STRUCT_SIZE_MISMATCH instead of reading
 * garbage. Check aps_abi_version() before anything else and reject a
 * major-version mismatch.
 *
 * Conventions:
 *   - Every call returns an aps_status_t; non-zero means failure and a
 *     human-readable message is available from aps_last_error_message()
 *     (thread-local, owned by the library, valid until the next failing
 *     call on the same thread).
 *   - Objects are opaque 64-bit handles (slot + generation). Handle 0
 *     is never valid. Destroying a handle twice returns
 *     APS_STATUS_STALE_HANDLE — typed, never undefined behavior.
 *   - Buffer-reading calls take a capacity and write the required count
 *     to their `written` out-parameter, including on
 *     APS_STATUS_BUFFER_TOO_SMALL, so callers can size-then-fill.
 *   - Panics inside the engine are caught at the boundary and surface
 *     as APS_STATUS_PANICKED.
 */

#ifndef ADAPTIVE_PHOTONICS_H
#define ADAPTIVE_PHOTONICS_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* ------------------------------------------------------------------ */
/* Version                                                            */
/* ------------------------------------------------------------------ */

#define APS_ABI_MAJOR 1
#define APS_ABI_MINOR 0
#define APS_ABI_PATCH 0

/* Packed as (major << 16) | (minor << 8) | patch. */
uint32_t aps_abi_version(void);

/* ------------------------------------------------------------------ */
/* Status codes                                                       */
/* ------------------------------------------------------------------ */

typedef int32_t aps_status_t;

enum {
  APS_STATUS_OK = 0,
  APS_STATUS_NULL_ARGUMENT = 1,
  APS_STATUS_INVALID_UTF8 = 2,
  APS_STATUS_INVALID_ARGUMENT = 3,
  APS_STATUS_UNKNOWN_CONTROLLER = 4,
  APS_STATUS_UNKNOWN_SCENARIO = 5,
  APS_STATUS_UNKNOWN_WORKLOAD = 6,
  APS_STATUS_STRUCT_SIZE_MISMATCH = 7,
  APS_STATUS_STALE_HANDLE = 8,
  APS_STATUS_HANDLE_EXHAUSTED = 9,
  APS_STATUS_BUFFER_TOO_SMALL = 10,
  APS_STATUS_WORKLOAD_UNBOUND = 11,
  APS_STATUS_CORE = 12,
  APS_STATUS_SIM = 13,
  APS_STATUS_COLLECTIVE = 14,
  APS_STATUS_SERVICE = 15,
  APS_STATUS_FABRIC = 16,
  APS_STATUS_PANICKED = 17
};

aps_status_t aps_abi_version_triple(uint32_t *major, uint32_t *minor,
                                    uint32_t *patch);

/* Stable identifier of a status code ("APS_STATUS_OK", ...); static
 * storage, never freed by the caller. */
const char *aps_status_name(aps_status_t status);

/* Message of the most recent failing call on this thread. */
const char *aps_last_error_message(void);

/* ------------------------------------------------------------------ */
/* Handles                                                            */
/* ------------------------------------------------------------------ */

typedef uint64_t aps_experiment_t; /* from aps_experiment_new          */
typedef uint64_t aps_simrun_t;     /* from aps_experiment_simulate     */
typedef uint64_t aps_service_t;    /* from aps_experiment_run_service  */

/* ------------------------------------------------------------------ */
/* Configuration                                                      */
/* ------------------------------------------------------------------ */

/* Fabric media for aps_domain_config_t.fabric. */
typedef enum {
  APS_FABRIC_OPTICAL = 0,        /* all-optical circuit switch         */
  APS_FABRIC_ELECTRICAL = 1,     /* crossbar, zero-cost reconfig       */
  APS_FABRIC_HYBRID = 2,         /* half electrical, half optical      */
  APS_FABRIC_WAVELENGTH_BANK = 3 /* multi-λ bank, per-band retune cost */
} aps_fabric_kind_t;

/* Admission policies for aps_experiment_set_admission. */
typedef enum {
  APS_ADMISSION_REJECT = 0,
  APS_ADMISSION_QUEUE = 1,
  APS_ADMISSION_BACKPRESSURE = 2
} aps_admission_policy_t;

typedef struct aps_domain_config_t {
  size_t struct_size;     /* = sizeof(aps_domain_config_t)             */
  uint32_t ports;         /* fabric port count (>= 2)                  */
  double alpha_s;         /* per-step latency α; <= 0 → paper default;
                             NaN or +inf → APS_STATUS_INVALID_ARGUMENT */
  double bandwidth_gbps;  /* line rate; <= 0 → paper default (800);
                             NaN, or too large for a finite byte rate,
                             → APS_STATUS_INVALID_ARGUMENT             */
  double delta_s;         /* per-hop propagation δ; < 0 → default;
                             NaN or +inf → APS_STATUS_INVALID_ARGUMENT */
  double alpha_r_s;       /* reconfiguration delay α_r                 */
  const char *controller; /* "static"|"bvn"|"threshold"|"opt"|"greedy";
                             NULL → "opt"                              */
  int32_t fabric;         /* an aps_fabric_kind_t                      */
  int32_t storm;          /* nonzero → apply the seeded failure storm  */
  uint64_t storm_seed;    /* storm seed (when storm != 0)              */
} aps_domain_config_t;

typedef struct aps_service_class_t {
  size_t struct_size;       /* = sizeof(aps_service_class_t)           */
  const char *name;         /* class name (required)                   */
  uint32_t ports;           /* ports per job (>= 2)                    */
  const char *workload;     /* collective family each job runs         */
  double message_bytes;     /* message volume per job                  */
  double arrival_rate_hz;   /* Poisson rate, jobs per simulated second */
  uint64_t jobs;            /* jobs offered; 0 = unbounded, which needs
                               aps_experiment_set_max_jobs: without a
                               cap aps_experiment_run_service refuses
                               with APS_STATUS_INVALID_ARGUMENT        */
  uint64_t seed;            /* arrival-process seed                    */
  int32_t matched;          /* nonzero → reconfigure every step        */
} aps_service_class_t;

/* ------------------------------------------------------------------ */
/* Summaries                                                          */
/* ------------------------------------------------------------------ */

typedef struct aps_plan_summary_t {
  size_t struct_size;     /* set to sizeof before the call             */
  uint64_t steps;         /* steps in the collective                   */
  uint64_t matched_steps; /* steps planned matched                     */
  uint64_t reconfig_events;
  double latency_s;       /* s·α term                                  */
  double propagation_s;
  double transmission_s;
  double reconfig_s;
  double total_s;         /* planned completion, seconds               */
} aps_plan_summary_t;

typedef struct aps_sim_summary_t {
  size_t struct_size;       /* set to sizeof before the call           */
  uint64_t completion_ps;   /* completion, integer picoseconds         */
  double completion_s;
  double speedup_vs_static; /* static baseline / this run              */
  uint64_t rows;            /* detail rows for aps_simrun_rows         */
  uint64_t reconfig_events;
  uint64_t reconfig_ps;
  uint64_t transfer_ps;
  uint64_t arbitration_ps;
} aps_sim_summary_t;

/* One detail row: a collective step, or one tenant of a scenario. */
typedef struct aps_run_row_t {
  uint64_t index;
  uint64_t total_ps; /* step total, or the tenant's finish instant     */
  uint64_t reconfig_ps;
  uint64_t transfer_ps;
  uint64_t arbitration_ps;
} aps_run_row_t;

/* One (alpha_r, message-size) sweep cell under the four policies. */
typedef struct aps_sweep_cell_t {
  double t_static_s;    /* never reconfigure (controller "static")      */
  double t_bvn_s;       /* always-reconfigure BvN schedule ("bvn")      */
  double t_opt_s;       /* DP-optimal schedule ("opt")                  */
  double t_threshold_s; /* per-step threshold heuristic ("threshold")   */
} aps_sweep_cell_t;

typedef struct aps_service_stats_t {
  size_t struct_size; /* set to sizeof before the call                 */
  uint64_t makespan_ps;
  double makespan_s;
  uint64_t offered;
  uint64_t completed;
  uint64_t steps;
  uint64_t reconfig_events;
  uint64_t classes; /* index bound for the per-class calls             */
} aps_service_stats_t;

typedef struct aps_class_slo_t {
  size_t struct_size; /* set to sizeof before the call                 */
  uint64_t offered;
  uint64_t admitted;
  uint64_t queued;
  uint64_t backpressured;
  uint64_t rejected_too_large;
  uint64_t rejected_ports_busy;
  uint64_t rejected_queue_full;
  uint64_t completed;
  uint64_t failed;
  uint64_t completion_p50_ps; /* 0 when no jobs completed              */
  uint64_t completion_p99_ps; /* 0 when no jobs completed              */
  uint64_t completion_max_ps;
  uint64_t wait_p50_ps;       /* 0 when no jobs completed              */
  uint64_t wait_p99_ps;       /* 0 when no jobs completed              */
  double completion_mean_ps;
  double goodput; /* completed / offered                               */
} aps_class_slo_t;

/* ------------------------------------------------------------------ */
/* Experiment lifecycle                                               */
/* ------------------------------------------------------------------ */

aps_status_t aps_experiment_new(const aps_domain_config_t *cfg,
                                aps_experiment_t *out);
aps_status_t aps_experiment_destroy(aps_experiment_t experiment);

/* Workload bindings — each replaces the previous binding.
 * Collective families: "hd-allreduce", "ring-allreduce", "alltoall",
 * "broadcast". Scenario names span the base pack and the heterogeneous
 * pack ("hetero-hybrid", "multi-wavelength", ...). */
aps_status_t aps_experiment_bind_collective(aps_experiment_t experiment,
                                            const char *family,
                                            double message_bytes);
aps_status_t aps_experiment_bind_scenario(aps_experiment_t experiment,
                                          const char *name,
                                          double message_bytes);
aps_status_t aps_experiment_add_service_class(aps_experiment_t experiment,
                                              const aps_service_class_t *cls);
aps_status_t aps_experiment_set_admission(aps_experiment_t experiment,
                                          int32_t policy, uint64_t capacity);
aps_status_t aps_experiment_set_max_jobs(aps_experiment_t experiment,
                                         uint64_t max_jobs);

/* ------------------------------------------------------------------ */
/* Runs                                                               */
/* ------------------------------------------------------------------ */

/* Plans the bound collective and prices the schedule (collective
 * bindings only). */
aps_status_t aps_experiment_plan(aps_experiment_t experiment,
                                 aps_plan_summary_t *out);

/* Simulates the bound collective or scenario on the configured fabric;
 * also runs the static baseline for speedup_vs_static. */
aps_status_t aps_experiment_simulate(aps_experiment_t experiment,
                                     aps_simrun_t *out_run);

/* Sweeps the bound collective over reconfiguration delays × message
 * sizes. `cells` holds n_delays * n_bytes entries, row-major with
 * delays outermost; pass cell_size = sizeof(aps_sweep_cell_t). A grid
 * whose cell count n_delays * n_bytes overflows size_t is refused with
 * APS_STATUS_INVALID_ARGUMENT, and `written` is left untouched. */
aps_status_t aps_experiment_sweep(aps_experiment_t experiment,
                                  const double *reconf_delays_s,
                                  size_t n_delays, const double *message_bytes,
                                  size_t n_bytes, size_t cell_size,
                                  aps_sweep_cell_t *cells, size_t capacity,
                                  size_t *written);

/* Runs the experiment's service classes as an open system. A class
 * with jobs = 0 (unbounded) needs aps_experiment_set_max_jobs first:
 * without a cap the run would never end, so it is refused with
 * APS_STATUS_INVALID_ARGUMENT before anything is built. */
aps_status_t aps_experiment_run_service(aps_experiment_t experiment,
                                        aps_service_t *out_service);

/* ------------------------------------------------------------------ */
/* Reading runs                                                       */
/* ------------------------------------------------------------------ */

aps_status_t aps_simrun_summary(aps_simrun_t run, aps_sim_summary_t *out);
aps_status_t aps_simrun_rows(aps_simrun_t run, size_t row_size,
                             aps_run_row_t *rows, size_t capacity,
                             size_t *written);
aps_status_t aps_simrun_destroy(aps_simrun_t run);

/* ------------------------------------------------------------------ */
/* Reading service runs                                               */
/* ------------------------------------------------------------------ */

aps_status_t aps_service_stats(aps_service_t service,
                               aps_service_stats_t *out);
aps_status_t aps_service_class_slo(aps_service_t service, size_t index,
                                   aps_class_slo_t *out);
/* Copies the class name, NUL-terminated; `written` gets the byte count
 * including the NUL. */
aps_status_t aps_service_class_name(aps_service_t service, size_t index,
                                    char *buffer, size_t capacity,
                                    size_t *written);
aps_status_t aps_service_destroy(aps_service_t service);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ADAPTIVE_PHOTONICS_H */
