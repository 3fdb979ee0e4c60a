(** Mutable machine state shared by the interpreter, the libc builtins
    and the sanitizer runtimes. *)

type t = {
  mem : Memory.t;
  alloc : Alloc.t;
  input : Input.t;        (** the dummy input server *)
  output : Buffer.t;      (** captured stdout *)
  mutable cycles : int;   (** the deterministic cost-model clock *)
  mutable cycle_budget : int;
  mutable sp : int;
  mutable globals_end : int;
  mutable rng : int;
  mutable heap_frees : int;
  mutable heap_allocs : int;
  mutable addr_mask : int;
      (** effective-address mask; HWASan narrows it to emulate ARM
          top-byte-ignore *)
  sink : Report.sink;
      (** the per-run diagnostic sink (Halt by default) *)
  fault : Fault.t;
      (** the run's fault injector — a private clone of the one passed
          to [create]; inert unless faults were requested *)
  telem : Telemetry.t;
      (** always-on runtime telemetry: per-check-site counters, named
          counters/gauges ([--stats]), bounded event ring *)
}

exception Exited of int
(** Raised by the [exit] builtin. *)

val default_budget : int
(** The default cycle budget (2e9), shared by [create], the driver and
    the overhead harness. *)

val create : ?cycle_budget:int -> ?seed:int -> ?policy:Report.policy ->
  ?fault:Fault.t -> unit -> t

val report : t -> ?addr:int -> ?site:int -> ?detail:string -> by:string ->
  Report.bug_kind -> unit
(** Submits a finding through the run's sink: raises under [Halt],
    records and returns under [Recover] (the caller must then repair the
    operation and continue). *)

val set_stat : t -> string -> int -> unit

val tick : t -> int -> unit
(** Advances the clock; raises [Report.Trap Out_of_cycles] past the
    budget. *)

val next_rand : t -> int
(** Deterministic splitmix PRNG (rand(), HWASan tag draws). *)

val check_mapped : t -> int -> int -> unit
(** Validates that a program access falls in a mapped region (globals,
    heap, stack); raises [Report.Trap Segfault]/[Null_deref] otherwise. *)

val effective : t -> int -> int
(** Applies the TBI mask. *)
