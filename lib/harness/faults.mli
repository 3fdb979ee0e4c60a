(** The graceful-degradation table: per-sanitizer behavior under
    injected faults (allocator OOM, metadata-table exhaustion, tag
    corruption), run in recover mode over a smoke workload. *)

type cell = {
  c_status : string;
      (** ["ok"] expected exit; ["ok*"] expected exit with findings
          recorded; ["exit:N"]/["exit*:N"] wrong exit code;
          ["crash:..."] machine trap; ["excluded"] the sanitizer cannot
          compile the workload; ["quarantined:CLASS"] the task itself
          died (injected crash, fuel exhaustion) and was quarantined *)
  c_reports : int;
  c_suppressed : int;
  c_fallbacks : int;  (** allocations served unprotected via entry 0 *)
  c_chained : int;    (** allocations served via overflow chains *)
}

type data = {
  f_workload : string;
  f_scenarios : string list;
  f_rows : (string * cell list) list;
}

val run :
  ?pool:Pool.t -> ?workload:Workloads.Spec2006.t ->
  ?backend:Vm.Machine.backend -> unit -> data
(** The full lineup x scenario grid (default workload:
    [Workloads.Spec2006.perlbench]); [pool] fans the independent cells
    out across domains; [backend] threads into every cell. *)

val render : Format.formatter -> data -> unit
