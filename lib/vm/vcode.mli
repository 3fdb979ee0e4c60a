(** The load-time-resolved form of a Tir module, shared by the
    interpreter ({!Machine}) and the threaded-code backend ({!Jit}).

    Resolution pre-computes everything that does not depend on the
    executing machine: global addresses ([Glob] -> [Imm]), direct-call
    targets, per-block cycle costs, frame layouts, and a dense slot id
    per intrinsic call site.  Runtime closures are deliberately kept out
    of the resolved form -- each {!Machine.t} maps [islot]s to its own
    runtime's implementations -- which is what makes one resolution
    reusable across machines and sanitizer runtimes. *)

open Tir.Ir

type vinstr =
  | Vplain of instr  (** operands pre-resolved *)
  | Vcall of { dst : int option; target : vtarget; args : opnd array }
  | Vintrin of {
      dst : int option;
      islot : int;  (** index into the machine's intrinsic table *)
      name : string;
      args : opnd array;  (** site id appended as [Imm] *)
      site : int;
    }
  | Vtelem of { kind : int; site : int }
      (** Checkopt telemetry marker, 0 = elided / 1 = covered: executed
          natively at zero cycle cost *)

and vtarget = Vdirect of loaded_func | Vnamed of string

and loaded_func = {
  lf : func;
  mutable code : vinstr array array;
  mutable terms : term array;
  mutable costs : int array;
      (** per-block cycle cost (telemetry markers excluded) *)
  frame_size : int;
  slot_off : int array;
}

type t = {
  md : modul;
  funcs : (string, loaded_func) Hashtbl.t;
  globals : (string, int) Hashtbl.t;
  globals_end : int;
  intrin_names : string array;  (** islot -> intrinsic name *)
  malformed : Report.trap option;
      (** the first register, slot or branch target (in function,
          block and instruction order) that some function names outside
          its frame or body: the module cannot run, and both backends
          fault with this trap before executing anything *)
}

val max_call_depth : int
(** Recursion bound enforced identically by both backends. *)

val resolve : modul -> t
(** One full resolution pass; prefer {!resolve_cached}. *)

val resolve_cached : modul -> t
(** Memoized on the module itself ([Tir.Ir.m_vcache]): repeated runs of
    the same compiled [Tir.Ir] resolve exactly once.  [Tir.Ir.clone]
    resets the memo, and mutating passes call [Tir.Ir.clear_vcache], so
    a hit always describes the module as it will execute. *)

val resolutions : int ref
(** Process-wide count of full resolutions, for cache regression
    tests. *)
