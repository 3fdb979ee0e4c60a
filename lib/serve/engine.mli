(** The service's execution core: runs decoded requests on
    [Harness.Pool], batching consecutive requests per pool slot, and
    folds every run's telemetry into one deterministic aggregate.

    Determinism contract (pinned by the test suite and CI): for a given
    request list, [process] returns identical rows -- responses, service
    cycles and telemetry snapshots -- at any job count and any batch
    size; only wall clock moves.  The aggregate merges rows in
    submission order, so its JSON is byte-identical too. *)

type row = {
  r_request : Protocol.request;
  r_response : Protocol.response;
  r_cycles : int;
      (** the run's deterministic cost-model cycles (the simulator's
          service time); 0 for error responses *)
  r_snapshot : Telemetry.Snapshot.t;
}

val sanitizer_of_name : string -> Sanitizer.Spec.t option
(** [Baselines.Tools.make]: every [cecsan_cli -s] name. *)

val kernel_of_name : string -> Workloads.Spec2006.t option
(** SPEC2006- and SPEC2017-like kernels, by [w_name]. *)

val execute : ?backend:Vm.Machine.backend -> Protocol.request -> row
(** Runs one request.  The request's own [backend] wins over [backend]
    (the engine default).  Compile/run failures (sema, lowering,
    [Spec.Unsupported], verifier rejection, fuel exhaustion, unknown
    sanitizer/kernel) become error responses -- the daemon never dies on
    a bad request. *)

val process :
  ?pool:Harness.Pool.t -> ?batch:int -> ?backend:Vm.Machine.backend ->
  Protocol.request list -> row list
(** Splits the submission-order request list into chunks of [batch]
    (default 16) consecutive requests, fans the chunks out on the pool
    (each chunk runs sequentially inside one slot), and reassembles rows
    in submission order. *)

(** {1 Session aggregate} *)

type aggregate = {
  agg_requests : int;
  agg_ok : int;
  agg_errors : int;
  agg_detected : int;
  agg_by_op : (string * int) list;  (** op name -> count, sorted *)
  agg_cycles : int;                 (** total service cycles *)
  agg_snapshot : Telemetry.Snapshot.t;
      (** per-request snapshots merged in submission order *)
}

val empty_aggregate : aggregate

val aggregate_rows : aggregate -> row list -> aggregate
(** Folds in submission order; [aggregate_rows empty_aggregate] builds
    the whole-session aggregate. *)

val aggregate_json : aggregate -> Json.t
(** Deterministic object (fixed key order, sorted [by_op], the merged
    snapshot embedded as a JSON object). *)
