(** A fixed-size pool of OCaml 5 domains with a shared work queue,
    feeding the evaluation grid (Tables II/IV/V, the ablation, the fault
    table).

    Every job is an independent, seeded, cost-model-deterministic
    [Driver.run]; [map] reassembles results in submission order, so
    parallel output is bit-for-bit identical to sequential output.  Jobs
    must not call [map] on the same pool recursively. *)

type t

val create : jobs:int -> t
(** [jobs] total workers (the submitting thread counts as one, so
    [jobs - 1] domains are spawned).  [jobs = 0] means one worker per
    recommended domain; [jobs = 1] runs everything sequentially on the
    submitter.  Raises [Invalid_argument] on a negative count. *)

val shutdown : t -> unit
(** Drains the workers and joins their domains.  Idempotent and safe to
    call again (or concurrently) after a submitter-side exception: the
    domain list is taken under the pool lock, so only one caller
    joins. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create]/[shutdown] bracket. *)

val with_jobs : int -> (t option -> 'a) -> 'a
(** [with_pool] for a resolved [-j] count: the callback gets [None] at
    one job (everything runs on the caller), the pool otherwise -- the
    [?pool] argument of every harness, campaign and serve entry point. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with results in submission order.  Every task
    runs to completion even when some raise; afterwards the
    lowest-index exception, if any, is re-raised -- the same exception
    a sequential run would surface first. *)

val map_results : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Total version of [map]: slot i holds [Ok] or the task's escaped
    exception, never aborting the rest of the list.  This is the path
    the supervision layer builds quarantine on.  A nested or concurrent
    [map]/[map_results] on the same pool raises [Invalid_argument]
    immediately instead of deadlocking. *)

val maybe_map : t option -> ('a -> 'b) -> 'a list -> 'b list
(** [map] when a pool with more than one worker is given, [List.map]
    otherwise -- the shape every harness [?pool] entry point uses. *)

val maybe_map_results :
  t option -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map_results] with the same [?pool] convention; the sequential path
    wraps each call identically, so the result shape is job-count
    independent. *)
