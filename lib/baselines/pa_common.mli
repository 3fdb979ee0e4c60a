(** Shared machinery for the ARM-Pointer-Authentication baselines
    (PACMem, CryptSan): a metadata identifier sealed into the pointer's
    upper bits, object-granularity bounds + liveness authenticated at
    every dereference.  Structural blind spots (shared, per the paper's
    Table II): no sub-object narrowing, no wide-character interceptors.

    Instrumentation is [Cecsan.Instrument.instrument] with
    [Cecsan.Config.no_subobject] in the policy's [p_prefix] namespace;
    this module is the runtime those intrinsics call. *)

type entry = {
  e_base : int;
  e_bound : int;
  e_salt : int;
  e_alive : bool;
}

type policy = {
  p_name : string;
  p_prefix : string;   (** intrinsic namespace *)
  p_tag_bits : int;
  p_reuse : bool;      (** recycle retired ids (PACMem yes, CryptSan no) *)
  p_check_cost : int;
}

type t = {
  pol : policy;
  entries : (int, entry) Hashtbl.t;
  mutable next_id : int;
  mutable free_ids : int list;
  mutable salt_src : int;
}

val create : policy -> t
val register : t -> int -> int -> int
(** [register t base size] returns the sealed pointer. *)

val retire : t -> int -> unit
val auth : t -> Vm.State.t -> write:bool -> int -> int -> int
(** Authenticate + bounds-check; returns the stripped address. *)

val pa_malloc : t -> Vm.State.t -> int -> int
val pa_free : t -> Vm.State.t -> int -> unit

val interceptors : t -> string -> Vm.Runtime.interceptor option
val fresh_runtime : policy -> unit -> Vm.Runtime.t
val sanitizer : policy -> Sanitizer.Spec.t
