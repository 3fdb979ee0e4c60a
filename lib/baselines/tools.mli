(** The tool table, the one map from a name to a sanitizer: [cecsan_cli
    -s], [cecsan_fuzz --tools] (baseline entries only), the daemon's
    [sanitizer] field, [Fuzz.Campaign] and the tests all read it. *)

type t = {
  key : string;
  make : unit -> Sanitizer.Spec.t;  (** a fresh instance *)
  baseline : bool;  (** a cross-check baseline the fuzzer runs *)
}

val all : t list
(** cecsan, cecsan-chain, cecsan-nosubobj, cecsan-noopt, then the
    baselines asan, asan--, hwasan, softbound, pacmem, cryptsan, then
    none. *)

val baselines : t list
val keys : t list -> string list
val make : string -> Sanitizer.Spec.t option

val baseline_specs : string list -> Sanitizer.Spec.t list
(** Fresh instances of the named baselines, in the given order; other
    names are skipped. *)
