(** The threaded-code backend: compiles each basic block of a resolved
    module once into a chain of pre-specialized closures, eliminating
    the interpreter's instruction-dispatch inner loop while replicating
    its semantics exactly -- outcomes, diagnostics, cycle accounting,
    fault injection and telemetry are all tick-for-tick identical (the
    differential suite in test_jit.ml enforces this). *)

type ctx = {
  st : State.t;
  itab : Runtime.intrinsic option array;
      (** the machine's islot -> implementation table *)
  checks : Runtime.check option array;
      (** per slot, the Algorithm 1 check to run inline instead of
          calling [itab]'s closure (see [Machine.create]) *)
  named : string -> int array -> int;
      (** the machine's by-name call path: allocation family, libc with
          interception/TBI, registered externs *)
  mutable depth : int;  (** live call frames, of either backend *)
}
(** A machine's execution context, used by both backends and kept
    across its runs; compiled code receives it through the environment
    threaded at execution time, so a compiled program captures no
    per-machine state and is reusable across machines and runtimes. *)

type prog
(** A compiled program. *)

type jfunc
(** A compiled function. *)

val compile : Vcode.t -> prog
(** One full compilation pass; prefer {!compile_cached}. *)

val compile_cached : ?fuel:Tir.Fuel.t -> Vcode.t -> prog
(** Memoized on the module ([Tir.Ir.m_vcache]), alongside the resolved
    form it was compiled from.  Burns [Tir.Ir.module_size] fuel
    UNCONDITIONALLY -- cache hits and misses are indistinguishable to
    the fuel watchdog. *)

val find_func : prog -> string -> jfunc option

val enter : ctx -> int -> int
(** [enter c frame_size] is the call protocol's entry, shared by both
    backends: counts the call depth, sets [sp] to a fresh 16-byte-aligned
    frame of [frame_size] bytes (its base), and returns the caller's
    [sp].  Traps with [Stack_exhausted] past [Vcode.max_call_depth] or
    the stack limit, leaving depth and [sp] as they were. *)

val leave : ctx -> int -> unit
(** [leave c saved_sp] undoes {!enter}; run it on normal and exceptional
    exit alike. *)

val exec_jfunc : ctx -> jfunc -> int array -> int
(** Calls a compiled function under {!enter}/{!leave}. *)

val compilations : int ref
(** Process-wide count of full compilations, for cache regression
    tests. *)

val forwarded_moves : int ref
(** Process-wide count of the moves compilation forwarded (compiled to
    nothing, their readers reading the source), for the tests that pin
    it. *)
