(* Tir: the typed, register-based intermediate representation.

   The IR plays the role of LLVM IR in the paper: MiniC is lowered to it,
   sanitizer instrumentation is an IR -> IR transform, the optimizations of
   CECSan section II.F are IR passes, and the VM interprets it with a
   deterministic cost model.

   Shape: a function is an array of basic blocks over an infinite register
   file (non-SSA: registers may be redefined).  Locals live in stack
   [slot]s addressed by [Islot]; a mem2reg-style pass ([Promote]) models
   -O2 by moving non-address-taken scalars into registers. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | And | Or | Xor

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type opnd =
  | Reg of int
  | Imm of int
  | Glob of string   (* address of a global symbol *)

(* Static information attached to pointer derivations, used by the
   sub-object narrowing and the type-info check-elision of CECSan. *)
type gep_info =
  | Gfield of {
      off : int;           (* byte offset of the field *)
      fsize : int;         (* byte size of the field *)
      fname : string;
      sname : string;      (* owning struct *)
    }
  | Gindex of {
      elem_size : int;
      count : int option;  (* static element count of the base, if known *)
    }

type instr =
  | Imov of { dst : int; src : opnd }
  | Ibin of { op : binop; dst : int; a : opnd; b : opnd }
  | Icmp of { op : cmpop; dst : int; a : opnd; b : opnd }
  (* sign-extend a value of [bytes] width to the full word *)
  | Isext of { dst : int; src : opnd; bytes : int }
  | Iload of { dst : int; addr : opnd; size : int; signed : bool; safe : bool }
  | Istore of { addr : opnd; src : opnd; size : int; safe : bool }
  (* address of stack slot [slot] *)
  | Islot of { dst : int; slot : int }
  (* dst = base + off (field) / base + idx*elem_size (index) *)
  | Igep of { dst : int; base : opnd; idx : opnd option; info : gep_info }
  | Icall of { dst : int option; callee : string; args : opnd list }
  (* sanitizer runtime call; [site] is a unique id for per-site state *)
  | Iintrin of { dst : int option; name : string; args : opnd list; site : int }

type term =
  | Tret of opnd option
  | Tbr of int
  | Tcbr of opnd * int * int   (* cond, then-block, else-block *)

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
  (* address-taken or variably indexed: needs sanitizer protection *)
  mutable s_unsafe : bool;
}

type func = {
  f_name : string;
  f_params : int list;           (* registers receiving the arguments *)
  mutable f_nregs : int;
  mutable f_slots : slot list;
  mutable f_blocks : block array;
  f_external : bool;             (* uninstrumented code *)
  f_ret_void : bool;
  (* which parameters are pointers, and whether the return is: needed at
     external call boundaries (tag stripping / entry-0 adoption) *)
  f_sig_ptrs : bool list;
  f_ret_ptr : bool;
}

type global = {
  g_name : string;
  g_size : int;
  g_align : int;
  g_image : bytes;               (* initial contents, g_size bytes *)
  g_ty : Minic.Ast.ty;
  g_internal : bool;             (* compiler-generated (literals, GPT) *)
  mutable g_unsafe : bool;
}

(* Downstream consumers (the VM) memoize derived forms of a module --
   resolved code, jit-compiled closures -- directly on the module so
   repeated runs of the same Ir value never re-pay the derivation.  The
   slot is an extensible variant so Tir stays ignorant of what lives in
   it; each consumer adds its own constructor and scans the (tiny) list.
   Any pass that mutates a module after it has been executed must call
   [clear_vcache] (the driver's instrument/optimize gate and the linker
   do). *)
type vm_cache = ..

(* The analysis certificate behind the witnesses: Checkopt attaches the
   abstract interpreter's per-block entry states, which Verify checks
   instead of recomputing.  Extensible for the same reason as
   [vm_cache]: the states are Absint's type, and Absint is built on top
   of this module. *)
type cert = ..

type modul = {
  mutable m_globals : global list;
  m_funcs : (string, func) Hashtbl.t;
  m_layouts : Minic.Layout.env;
  mutable m_next_site : int;     (* generator for Iintrin site ids *)
  mutable m_witnesses : Witness.t list;
    (* elision certificates attached by Checkopt, replayed by Verify *)
  mutable m_certs : cert list;   (* the fixpoints those witnesses rest on *)
  mutable m_vcache : vm_cache list;
}

let clear_vcache m = m.m_vcache <- []

let fresh_site m =
  let s = m.m_next_site in
  m.m_next_site <- s + 1;
  s

let fresh_reg f =
  let r = f.f_nregs in
  f.f_nregs <- r + 1;
  r

(* --- deep clone --------------------------------------------------------- *)

(* Deep-copies every mutable structure of a module so that instrumenting
   (or otherwise rewriting) the clone cannot be observed through the
   original.  Instructions, terminators and operands are immutable and
   shared; blocks, slots, functions, globals (including the initializer
   image), the function table and the layout table are copied.  This is
   what lets the driver's compile cache hand each sanitizer its own
   module without re-running the front end. *)

let clone_block b = { b_id = b.b_id; b_instrs = b.b_instrs; b_term = b.b_term }

let clone_slot s =
  { s_id = s.s_id; s_name = s.s_name; s_size = s.s_size; s_align = s.s_align;
    s_ty = s.s_ty; s_unsafe = s.s_unsafe }

let clone_func f =
  {
    f_name = f.f_name;
    f_params = f.f_params;
    f_nregs = f.f_nregs;
    f_slots = List.map clone_slot f.f_slots;
    f_blocks = Array.map clone_block f.f_blocks;
    f_external = f.f_external;
    f_ret_void = f.f_ret_void;
    f_sig_ptrs = f.f_sig_ptrs;
    f_ret_ptr = f.f_ret_ptr;
  }

let clone_global g =
  { g_name = g.g_name; g_size = g.g_size; g_align = g.g_align;
    g_image = Bytes.copy g.g_image; g_ty = g.g_ty;
    g_internal = g.g_internal; g_unsafe = g.g_unsafe }

let clone m =
  let funcs = Hashtbl.create (Hashtbl.length m.m_funcs) in
  Hashtbl.iter (fun name f -> Hashtbl.replace funcs name (clone_func f))
    m.m_funcs;
  {
    m_globals = List.map clone_global m.m_globals;
    m_funcs = funcs;
    m_layouts = Hashtbl.copy m.m_layouts;
    m_next_site = m.m_next_site;
    m_witnesses = m.m_witnesses;
    m_certs = m.m_certs;
    (* a clone is made to be mutated: cached derived code of the
       original must never leak into it *)
    m_vcache = [];
  }

(* --- operand / instruction utilities ----------------------------------- *)

let defs = function
  | Imov { dst; _ } | Ibin { dst; _ } | Icmp { dst; _ } | Isext { dst; _ }
  | Iload { dst; _ } | Islot { dst; _ } | Igep { dst; _ } -> Some dst
  | Icall { dst; _ } | Iintrin { dst; _ } -> dst
  | Istore _ -> None

let iter_def k = function
  | Imov { dst; _ } | Ibin { dst; _ } | Icmp { dst; _ } | Isext { dst; _ }
  | Iload { dst; _ } | Islot { dst; _ } | Igep { dst; _ }
  | Icall { dst = Some dst; _ } | Iintrin { dst = Some dst; _ } -> k dst
  | Icall { dst = None; _ } | Iintrin { dst = None; _ } | Istore _ -> ()

let opnd_uses = function Reg r -> [ r ] | Imm _ | Glob _ -> []

let map_opnds f i =
  match i with
  | Imov c -> Imov { c with src = f c.src }
  | Ibin c -> Ibin { c with a = f c.a; b = f c.b }
  | Icmp c -> Icmp { c with a = f c.a; b = f c.b }
  | Isext c -> Isext { c with src = f c.src }
  | Iload c -> Iload { c with addr = f c.addr }
  | Istore c -> Istore { c with addr = f c.addr; src = f c.src }
  | Islot _ -> i
  | Igep c -> Igep { c with base = f c.base; idx = Option.map f c.idx }
  | Icall c -> Icall { c with args = List.map f c.args }
  | Iintrin c -> Iintrin { c with args = List.map f c.args }

let iter_opnds k = function
  | Imov { src; _ } | Isext { src; _ } -> k src
  | Ibin { a; b; _ } | Icmp { a; b; _ } ->
    k a;
    k b
  | Iload { addr; _ } -> k addr
  | Istore { addr; src; _ } ->
    k addr;
    k src
  | Islot _ -> ()
  | Igep { base; idx; _ } ->
    k base;
    Option.iter k idx
  | Icall { args; _ } | Iintrin { args; _ } -> List.iter k args

let uses = function
  | Imov { src; _ } -> opnd_uses src
  | Ibin { a; b; _ } | Icmp { a; b; _ } -> opnd_uses a @ opnd_uses b
  | Isext { src; _ } -> opnd_uses src
  | Iload { addr; _ } -> opnd_uses addr
  | Istore { addr; src; _ } -> opnd_uses addr @ opnd_uses src
  | Islot _ -> []
  | Igep { base; idx; _ } ->
    opnd_uses base @ (match idx with Some o -> opnd_uses o | None -> [])
  | Icall { args; _ } | Iintrin { args; _ } -> List.concat_map opnd_uses args

let term_uses = function
  | Tret (Some o) | Tcbr (o, _, _) -> opnd_uses o
  | Tret None | Tbr _ -> []

let successors = function
  | Tret _ -> []
  | Tbr b -> [ b ]
  | Tcbr (_, a, b) -> if a = b then [ a ] else [ a; b ]

let find_func m name = Hashtbl.find_opt m.m_funcs name

let iter_funcs m f =
  (* deterministic order *)
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) m.m_funcs [] in
  List.iter (fun n -> f (Hashtbl.find m.m_funcs n))
    (List.sort String.compare names)

let find_global m name =
  List.find_opt (fun g -> String.equal g.g_name name) m.m_globals

(* --- telemetry markers --------------------------------------------------- *)

(* Checkopt leaves a zero-operand marker intrinsic at every site whose
   check it removed ([telemetry_elided]) or whose work a hoisted/grouped
   check now performs ([telemetry_covered]).  The machine executes them
   natively at zero cycle cost, bumping the per-site telemetry counters,
   which is what makes the conservation law
   executed(O0) = executed(O2) + elided(O2) + covered(O2) checkable. *)
let telemetry_elided = "__telemetry_elided"
let telemetry_covered = "__telemetry_covered"

let telemetry_prefix = "__telemetry_"

let is_telemetry_marker name =
  String.starts_with ~prefix:telemetry_prefix name

(* Total number of instructions in a function/module, used by tests and
   the instrumentation statistics.  Telemetry markers are bookkeeping,
   not code: they are excluded so Checkopt's size effect stays visible. *)
let func_size f =
  Array.fold_left
    (fun acc b ->
       List.fold_left
         (fun acc i ->
            match i with
            | Iintrin { name; _ } when is_telemetry_marker name -> acc
            | _ -> acc + 1)
         (acc + 1) b.b_instrs)
    0 f.f_blocks

let module_size m =
  let n = ref 0 in
  iter_funcs m (fun f -> n := !n + func_size f);
  !n

(* Maps every intrinsic site id present in the module to a stable origin
   label "func.bN[i] name" (function, block, instruction index, intrinsic
   name) for the --profile report.  Telemetry markers keep the ORIGINAL
   site's id, so after Checkopt a site may resolve to its marker -- the
   label still names the source position of the original check.  Sorted
   by site id. *)
let site_origins m : (int * string) list =
  let acc = ref [] in
  iter_funcs m (fun f ->
      Array.iter
        (fun b ->
           List.iteri
             (fun i instr ->
                match instr with
                | Iintrin { name; site; _ } when site >= 0 ->
                  acc :=
                    (site,
                     Printf.sprintf "%s.b%d[%d] %s" f.f_name b.b_id i name)
                    :: !acc
                | _ -> ())
             b.b_instrs)
        f.f_blocks);
  (* one label per site: prefer the first occurrence in program order
     (real checks come before any later duplicate) *)
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun kept (site, lbl) ->
       if Hashtbl.mem seen site then kept
       else begin
         Hashtbl.replace seen site ();
         (site, lbl) :: kept
       end)
    []
    (List.rev !acc)
  |> List.sort compare

(* Counts intrinsic instructions whose name satisfies [p]: used to report
   static check counts before/after optimization. *)
let count_intrins m p =
  let n = ref 0 in
  iter_funcs m (fun f ->
      Array.iter
        (fun b ->
           List.iter
             (function
               | Iintrin { name; _ } when p name -> incr n
               | _ -> ())
             b.b_instrs)
        f.f_blocks);
  !n
