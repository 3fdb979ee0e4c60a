(** The common sanitizer interface: an instrumentation pass over Tir
    plus a fresh-per-run VM runtime. *)

exception Unsupported of string
(** A SoftBound-style "compilation error": the tool cannot handle a
    construct in the program, so the case is excluded from its evaluated
    subset (as the paper does for SoftBound+CETS). *)

type t = {
  name : string;
  instrument : Tir.Ir.modul -> unit;
      (** inserts checks/metadata in the linked module in place; may
          raise [Unsupported]; must leave the module verifiable *)
  optimize : Tir.Ir.modul -> unit;
      (** the check-optimization phase (section II.F), separated so the
          driver can run [Tir.Verify] both before and after it;
          identity for tools without check optimizations *)
  verify : Tir.Analysis.spec option;
      (** how [Tir.Verify] certifies this tool's output; [None] skips
          the coverage half (well-formedness is always checked) *)
  fresh_runtime : unit -> Vm.Runtime.t;
      (** fresh per-run runtime state.  What a finding does is not the
          sanitizer's: {!Driver.run_module}'s [?policy] decides, and
          defaults to [Halt] *)
}

val none : t
(** The uninstrumented baseline: plain `clang -O2`. *)

val is_alloc_family : string -> bool
(** malloc/free/calloc/realloc: the callees sanitizers rewrite or wrap. *)
