(** Tir: the typed, register-based intermediate representation.

    Plays the role of LLVM IR in the paper: MiniC is lowered to it,
    sanitizer instrumentation is an IR-to-IR transform, the section II.F
    optimizations are IR passes, and the VM interprets it under the
    deterministic cost model.  Functions are arrays of basic blocks over
    an infinite, non-SSA register file; locals live in stack [slot]s
    until [Promote] (the -O2 model) moves the safe scalars into
    registers. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | And | Or | Xor

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type opnd =
  | Reg of int
  | Imm of int
  | Glob of string  (** address of a global symbol *)

(** Static information on pointer derivations, used by sub-object
    narrowing and the type-info check elision. *)
type gep_info =
  | Gfield of {
      off : int;     (** byte offset of the field *)
      fsize : int;   (** byte size of the field *)
      fname : string;
      sname : string;
    }
  | Gindex of {
      elem_size : int;
      count : int option;  (** static element count of the base, if known *)
    }

type instr =
  | Imov of { dst : int; src : opnd }
  | Ibin of { op : binop; dst : int; a : opnd; b : opnd }
  | Icmp of { op : cmpop; dst : int; a : opnd; b : opnd }
  | Isext of { dst : int; src : opnd; bytes : int }
      (** sign-extend a [bytes]-wide value to the full word (also the
          truncation used when promoted narrow slots are stored) *)
  | Iload of { dst : int; addr : opnd; size : int; signed : bool; safe : bool }
      (** [safe]: statically provably in bounds of a named object --
          sanitizers with the II.F.2 optimization may elide the check *)
  | Istore of { addr : opnd; src : opnd; size : int; safe : bool }
  | Islot of { dst : int; slot : int }  (** address of a stack slot *)
  | Igep of { dst : int; base : opnd; idx : opnd option; info : gep_info }
  | Icall of { dst : int option; callee : string; args : opnd list }
  | Iintrin of { dst : int option; name : string; args : opnd list; site : int }
      (** sanitizer runtime call; [site] keys per-site runtime state *)

type term =
  | Tret of opnd option
  | Tbr of int
  | Tcbr of opnd * int * int

type block = {
  b_id : int;
  mutable b_instrs : instr list;
  mutable b_term : term;
}

type slot = {
  s_id : int;
  s_name : string;
  s_size : int;
  s_align : int;
  s_ty : Minic.Ast.ty;
  mutable s_unsafe : bool;
      (** address-taken or variably indexed: needs protection *)
}

type func = {
  f_name : string;
  f_params : int list;  (** registers receiving the arguments *)
  mutable f_nregs : int;
  mutable f_slots : slot list;
  mutable f_blocks : block array;
  f_external : bool;    (** uninstrumented (legacy) code *)
  f_ret_void : bool;
  f_sig_ptrs : bool list;
      (** which parameters are pointers: needed at external boundaries *)
  f_ret_ptr : bool;
}

type global = {
  g_name : string;
  g_size : int;
  g_align : int;
  g_image : bytes;       (** initial contents *)
  g_ty : Minic.Ast.ty;
  g_internal : bool;     (** compiler-generated (string literals etc.) *)
  mutable g_unsafe : bool;
}

type vm_cache = ..
(** Extensible memo slot for derived forms of a module (the VM caches
    its resolved code and jit-compiled closures here, keyed by its own
    constructors).  Tir itself never reads it; {!clone} resets it. *)

type cert = ..
(** Extensible slot for the analysis certificate behind the witnesses:
    Checkopt's absint phase attaches [Absint]'s per-block entry states
    here under [Absint]'s own constructor, and [Verify] checks them
    instead of re-running the analysis.  Tir.Ir itself never reads it. *)

type modul = {
  mutable m_globals : global list;
  m_funcs : (string, func) Hashtbl.t;
  m_layouts : Minic.Layout.env;
  mutable m_next_site : int;
  mutable m_witnesses : Witness.t list;
      (** elision certificates attached by the optimizer (Checkopt's
          absint phase); {!clone} shares the list, and [Verify] replays
          every entry *)
  mutable m_certs : cert list;
      (** the fixpoints the witnesses rest on, one per function that has
          witnesses (see {!cert}); {!clone} shares the list *)
  mutable m_vcache : vm_cache list;
      (** derived-code memos; see {!vm_cache} and {!clear_vcache} *)
}

val clear_vcache : modul -> unit
(** Drops every cached derived form.  Must be called by any pass that
    mutates a module which may already have been executed (the
    sanitizer gate and the linker do). *)

val fresh_site : modul -> int
(** A unique id for a new instrumentation site. *)

val clone : modul -> modul
(** Deep copy: every mutable structure (blocks, slots, functions, global
    images, the function and layout tables) is duplicated, so rewriting
    the clone leaves the original untouched.  Immutable instructions and
    operands are shared.  Backs the driver's compile-once cache. *)

val fresh_reg : func -> int

val defs : instr -> int option
(** The register defined by an instruction, if any. *)

val iter_def : (int -> unit) -> instr -> unit
(** [defs] without building the option: hands the register, if any,
    to [k]. *)

val map_opnds : (opnd -> opnd) -> instr -> instr
(** Rewrites every operand an instruction reads.  [f] may have effects
    (minting registers and sites); the order in which it meets the
    operands is fixed here, so the numbering it produces is too. *)

val iter_opnds : (opnd -> unit) -> instr -> unit
(** The operands an instruction reads, in [map_opnds] order, without
    building a list. *)

val uses : instr -> int list
val term_uses : term -> int list
val successors : term -> int list

val find_func : modul -> string -> func option

val iter_funcs : modul -> (func -> unit) -> unit
(** Iterates in deterministic (name-sorted) order. *)

val find_global : modul -> string -> global option

val telemetry_elided : string
(** Marker intrinsic name Checkopt leaves at a site whose check it
    removed as redundant.  Executed natively by the machine at zero
    cycle cost, bumping the site's elided counter. *)

val telemetry_covered : string
(** Marker intrinsic name Checkopt leaves at a site whose work a
    hoisted or endpoint-grouped check now performs. *)

val is_telemetry_marker : string -> bool

val module_size : modul -> int

val site_origins : modul -> (int * string) list
(** Maps every intrinsic site id in the module to an origin label
    "func.bN[i] name", sorted by site id — the source positions behind
    the [--profile] hot-site report. *)

val count_intrins : modul -> (string -> bool) -> int
(** Counts intrinsic call sites whose name satisfies the predicate:
    static check counts before/after optimization. *)
