(* The common sanitizer interface.

   A sanitizer is an instrumentation pass over Tir plus a runtime for the
   VM.  Instrumentation happens after all modules are linked (the paper
   instruments during LTO, which is what lets it tell truly external
   functions apart), so passes see the whole program. *)

exception Unsupported of string
(** SoftBound-style "compilation error": the pass cannot handle a
    construct in the program.  The harness counts such cases as excluded,
    as the paper does for SoftBound+CETS (3970 of 15752 cases). *)

type t = {
  name : string;
  (* inserts checks/metadata in place; may raise [Unsupported]; must
     leave the module verifiable (no check-elimination here) *)
  instrument : Tir.Ir.modul -> unit;
  (* the check-optimization phase (section II.F), run separately so the
     driver can verify coverage both before and after it; identity for
     tools without check optimizations *)
  optimize : Tir.Ir.modul -> unit;
  (* how Tir.Verify certifies this tool's output; None skips the
     coverage half (well-formedness is always checked) *)
  verify : Tir.Analysis.spec option;
  (* fresh per-run runtime state *)
  fresh_runtime : unit -> Vm.Runtime.t;
}

(* The uninstrumented baseline: what plain `clang -O2` produces. *)
let none : t = {
  name = "none";
  instrument = (fun _ -> ());
  optimize = (fun _ -> ());
  verify = None;
  fresh_runtime = (fun () -> Vm.Runtime.none);
}

(* The allocation-family callees that sanitizers rewrite/wrap. *)
let is_alloc_family = function
  | "malloc" | "free" | "calloc" | "realloc" -> true
  | _ -> false
