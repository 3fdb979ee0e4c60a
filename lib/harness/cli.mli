(** The command-line flags the binaries share (the bench harness,
    [cecsan_cli], [cecsan_fuzz], [cecsan_serve]), defined once: one
    parser, one default and one resolution rule per flag.  Each binary
    passes its own [doc] sentence. *)

open Cmdliner

val pos_int : int Arg.conv
(** Integers [> 0]; [0x], [0o] and [0b] literals are accepted, as by
    every integer flag below. *)

val nonneg_int : int Arg.conv
(** Integers [>= 0]. *)

val one_of : string list -> string Arg.conv
(** Exactly one of [names]: unlike [Arg.enum], no prefix of a name is
    accepted, so a command line takes the names a request does. *)

val fault_spec : Vm.Fault.spec Arg.conv
(** A fault-injection spec, as {!Vm.Fault.parse} reads it
    ([oom:N], [table:N], [tagflip:N], [crash:N], [fuel:N]). *)

val jobs : doc:string -> int Term.t
(** [-j]/[--jobs J]: a non-negative job count, default 1.  [0] is
    resolved here, once, to [Domain.recommended_domain_count ()]; the
    term's value is always positive. *)

val seed : doc:string -> int Term.t
(** [--seed S]: a non-negative run seed ([0x] accepted), default
    [0x5EED]. *)

val backend : doc:string -> Vm.Machine.backend option Term.t
(** [--backend interp|jit]; [None] when absent (the callee's default,
    the interpreter, applies). *)

val telemetry_json : doc:string -> string option Term.t
(** [--telemetry-json FILE]. *)

val write_snapshot : path:string -> Telemetry.Snapshot.t -> unit
(** Writes the snapshot's deterministic JSON, newline-terminated,
    atomically to [path] -- what [--telemetry-json] emits. *)
