(** Runtime and memory overhead measurement (Tables IV and V):
    deterministic cycle-count and resident-page ratios against the
    uninstrumented run. *)

type measurement = {
  m_tool : string;
  m_runtime_pct : float;
  m_memory_pct : float;
  m_cycles : int;
  m_resident : int;
  m_snapshot : Telemetry.Snapshot.t;
      (** the instrumented run's full telemetry *)
  m_labels : (int * string) list;
      (** site id -> IR origin, for the hot-site report *)
}

type row = {
  r_workload : string;
  r_base_cycles : int;
  r_base_resident : int;
  r_measurements : measurement list;
  r_correct : bool;  (** every run returned the expected checksum *)
}

val default_budget : int
(** The shared cycle budget ([Vm.State.default_budget]) bounding both
    the baseline and every sanitizer run; override per call with
    [?budget]. *)

val measure :
  ?budget:int -> ?pool:Pool.t -> ?backend:Vm.Machine.backend ->
  Workloads.Spec2006.t list -> row list
(** One row per workload; [pool] fans the rows out across domains
    (deterministic: identical to the sequential result); [backend]
    threads into every run (cycle counts are backend-invariant, only
    wall clock moves). *)

val aggregates : row list -> string -> (float * float) * (float * float)
(** [((runtime avg, runtime geomean), (memory avg, memory geomean))]. *)
