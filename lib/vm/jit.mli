(** The threaded-code backend: compiles each basic block of a resolved
    module once into a chain of pre-specialized closures, eliminating
    the interpreter's instruction-dispatch inner loop while replicating
    its semantics exactly -- outcomes, diagnostics, cycle accounting,
    fault injection and telemetry are all tick-for-tick identical (the
    differential suite in test_jit.ml enforces this). *)

type ctx = {
  st : State.t;
  itab : Runtime.intrinsic option array;
      (** the machine's islot -> implementation table (shared with the
          interpreter, so late-registration memoization benefits both) *)
  checks : Runtime.check option array;
      (** per slot, the Algorithm 1 check to run inline instead of
          calling [itab]'s closure (see [Machine.create]) *)
  named : string -> int array -> int;
      (** the machine's by-name call path: allocation family, libc with
          interception/TBI, registered externs *)
  reresolve : int -> Runtime.intrinsic option;
      (** re-resolves an intrinsic slot against the machine's runtime,
          memoizing into [itab] *)
  mutable depth : int;
}
(** Per-run context; compiled code receives it through the environment
    threaded at execution time, so a compiled program captures no
    per-run state and is reusable across machines and runtimes. *)

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

val exec_jfunc : ctx -> jfunc -> int array -> int
(** Calls a compiled function under the interpreter's exact call
    protocol (depth/frame accounting, stack-exhaustion trap, restore on
    normal and exceptional exit). *)

val compilations : int ref
(** Process-wide count of full compilations, for cache regression
    tests. *)
