(* CECSan configuration: feature and optimization toggles.

   The defaults are the paper's full system; the ablation benchmarks in
   bench/main.ml flip individual switches (DESIGN.md experiment index). *)

type t = {
  subobject : bool;       (* section II.D: sub-object bound narrowing *)
  opt_redundant : bool;   (* section II.F: redundant check elimination *)
  opt_loop : bool;        (* section II.F.1: invariant + monotonic checks *)
  opt_typeinfo : bool;    (* section II.F.2: statically-safe check removal *)
  opt_absint : bool;      (* DESIGN.md 16: certified elision via Tir.Absint *)
  (* section V.1 future work: on table exhaustion, chain conflicting
     metadata off shared indices instead of degrading to unprotected *)
  chain_overflow : bool;
}

let default = {
  subobject = true;
  opt_redundant = true;
  opt_loop = true;
  opt_typeinfo = true;
  opt_absint = true;
  chain_overflow = false;
}

let no_opts = {
  default with
  opt_redundant = false;
  opt_loop = false;
  opt_typeinfo = false;
  opt_absint = false;
}

let no_subobject = { default with subobject = false }

(* the section V.1 extension enabled *)
let with_chain = { default with chain_overflow = true }
