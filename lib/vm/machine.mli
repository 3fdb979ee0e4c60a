(** The machine: executes a Tir module under a sanitizer runtime with
    the deterministic cost model, through one of two observably
    identical backends sharing the same resolved code ({!Vcode}). *)

type outcome =
  | Exit of int            (** normal termination *)
  | Completed_with_bugs of {
      code : int;
      reports : Report.t list;   (** in submission order *)
      suppressed : int;
    }  (** finished under a [Recover] sink with recorded findings *)
  | Bug of Report.t        (** a sanitizer reported a violation *)
  | Fault of Report.trap   (** the machine/libc crashed on its own *)

type backend =
  | Interp  (** the reference interpreter *)
  | Jit     (** the threaded-code backend ({!Jit}) *)

type t = {
  st : State.t;
  md : Tir.Ir.modul;
  rt : Runtime.t;
  vc : Vcode.t;  (** resolved code, cached on [md] across machines *)
  ctx : Jit.ctx;
      (** the one execution context both backends run under: this
          machine's intrinsic-slot bindings (runtime-specific), the
          checks the jit runs inline (where a slot's closure is
          physically the runtime's registered [ck_intrinsic]), the
          by-name call path, late re-resolution and the call depth *)
  externs : (string, State.t -> int array -> int) Hashtbl.t;
}

val create : ?st:State.t -> ?rt:Runtime.t -> Tir.Ir.modul -> t
(** Loads globals into the simulated globals region and binds the
    module's resolved code (resolved at most once per module, see
    {!Vcode.resolve_cached}) to the runtime.  Applies the runtime's TBI
    configuration.  Binding is decided here: intrinsics registered on
    the runtime after [create] resolve late, through the closure path. *)

val register_extern : t -> string -> (State.t -> int array -> int) -> unit
(** Provides an OCaml implementation for an [extern] function with no
    body in any linked unit (a library the program was linked against at
    run time). *)

val global_addr : t -> string -> int

val run : ?entry:string -> ?backend:backend -> ?fuel:Tir.Fuel.t -> t -> outcome
(** Runs [entry] (default ["main"]) under [backend] (default [Interp]);
    all terminations funnel into [outcome].  [fuel] meters jit
    compilation (burned identically on compile-cache hits and misses);
    [Tir.Fuel.Exhausted] is a supervision event and propagates. *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_is_bug : outcome -> bool
