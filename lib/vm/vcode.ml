(* Vcode: the load-time-resolved form of a Tir module, shared by the
   interpreter (Vm.Machine) and the threaded-code backend (Vm.Jit).

   Resolution turns per-execution hashtable lookups into load-time work:

   - [Glob] operands whose symbol is known become [Imm] addresses
     (globals have fixed addresses once placed);
   - direct-call targets are resolved to the callee's [loaded_func]
     ([Vdirect]) -- only genuinely external callees keep the by-name
     slow path ([Vnamed]);
   - intrinsic call sites are assigned a dense slot id ([islot]); the
     per-MACHINE table mapping slots to the runtime's implementations is
     built by Machine.create.  Keeping runtime closures out of the
     resolved form is what makes it shareable: one resolution serves
     every run, under any sanitizer runtime.

   Unknown globals stay lazy so they still trap at execution time (not
   at load time), as before.

   The resolved form is memoized on the module itself
   ([Tir.Ir.m_vcache]), so repeated runs of the same compiled [Tir.Ir]
   never re-pay resolution.  [Tir.Ir.clone] resets the slot, and the
   sanitizer gate / linker clear it before mutating -- a cached vcode
   therefore always describes the module as it will execute. *)

open Tir.Ir

type vinstr =
  | Vplain of instr                    (* operands pre-resolved *)
  | Vcall of { dst : int option; target : vtarget; args : opnd array }
  | Vintrin of {
      dst : int option;
      islot : int;       (* index into the machine's intrinsic table *)
      name : string;
      args : opnd array; (* site id appended as [Imm] *)
      site : int;
    }
  (* a Checkopt telemetry marker: executed natively (no runtime dispatch,
     zero cycles), bumps the per-site elided/covered counter *)
  | Vtelem of { kind : int; site : int }  (* 0 = elided, 1 = covered *)

and vtarget = Vdirect of loaded_func | Vnamed of string

and loaded_func = {
  lf : func;
  mutable code : vinstr array array;   (* per block; filled by [resolve] *)
  mutable terms : term array;
  (* per-block cycle cost: instruction count EXCLUDING telemetry markers,
     precomputed so markers are free in the deterministic cost model *)
  mutable costs : int array;
  frame_size : int;
  slot_off : int array;
}

type t = {
  md : modul;
  funcs : (string, loaded_func) Hashtbl.t;
  globals : (string, int) Hashtbl.t;
  globals_end : int;
  intrin_names : string array;   (* islot -> intrinsic name *)
  malformed : Report.trap option;  (* the module cannot run *)
}

(* One authoritative recursion bound for both backends. *)
let max_call_depth = 6000

let align_up n a = (n + a - 1) / a * a

(* Functions are "loaded" in two phases.  [load_func] computes the frame
   layout and registers the function; [resolve] then pre-resolves the
   code once every function and global address is known. *)
let load_func (f : func) : loaded_func =
  let nslots = List.length f.f_slots in
  let slot_off = Array.make nslots 0 in
  let off = ref 0 in
  List.iter
    (fun s ->
       off := align_up !off (max s.s_align 1);
       (* an id outside [0, nslots) is [malformed]: the module never runs *)
       if s.s_id >= 0 && s.s_id < nslots then slot_off.(s.s_id) <- !off;
       off := !off + s.s_size)
    f.f_slots;
  {
    lf = f;
    code = [||];
    costs = [||];
    terms = Array.map (fun b -> b.b_term) f.f_blocks;
    (* a minimum frame models the saved ra/fp pair *)
    frame_size = align_up (max !off 32) 16;
    slot_off;
  }

let resolve_opnd globals (o : opnd) : opnd =
  match o with
  | Glob g ->
    (match Hashtbl.find_opt globals g with
     | Some a -> Imm a
     | None -> o)  (* unknown global: traps at execution, as before *)
  | Reg _ | Imm _ -> o

let resolve_instr funcs globals islot (i : instr) : vinstr =
  let r = resolve_opnd globals in
  match i with
  | Icall { dst; callee; args } ->
    let args = Array.of_list (List.map r args) in
    let target =
      match Hashtbl.find_opt funcs callee with
      | Some lf -> Vdirect lf
      | None -> Vnamed callee
    in
    Vcall { dst; target; args }
  | Iintrin { name; site; _ } when Tir.Ir.is_telemetry_marker name ->
    Vtelem
      { kind = (if String.equal name Tir.Ir.telemetry_elided then 0 else 1);
        site }
  | Iintrin { dst; name; args; site } ->
    let args = Array.of_list (List.map r args @ [ Imm site ]) in
    Vintrin { dst; islot = islot name; name; args; site }
  | Imov _ | Ibin _ | Icmp _ | Isext _ | Iload _ | Istore _ | Islot _
  | Igep _ ->
    Vplain (Tir.Ir.map_opnds r i)

(* The first register, slot or branch target [f] names outside
   [0, f_nregs), its slots or its blocks: such code would index past an
   array on either backend, so it is found here, once per resolution,
   instead of on the execution path. *)
let malformed (f : func) : Report.trap option =
  let bad = ref None in
  let check n kind x =
    if (x < 0 || x >= n) && !bad = None then
      bad := Some { Report.t_kind = kind x; t_addr = 0; t_detail = "" }
  in
  let func = f.f_name and nregs = f.f_nregs in
  let nslots = List.length f.f_slots and nblocks = Array.length f.f_blocks in
  let reg =
    check nregs (fun reg -> Report.Out_of_frame { func; reg; nregs })
  in
  let slot =
    check nslots (fun slot -> Report.Bad_slot { func; slot; nslots })
  in
  let target =
    check nblocks (fun target -> Report.Bad_target { func; target; nblocks })
  in
  let opnd = function Reg r -> reg r | Imm _ | Glob _ -> () in
  List.iter reg f.f_params;
  List.iter (fun s -> slot s.s_id) f.f_slots;
  Array.iter
    (fun b ->
       List.iter
         (fun i ->
            iter_opnds opnd i;
            iter_def reg i;
            match i with Islot { slot = s; _ } -> slot s | _ -> ())
         b.b_instrs;
       List.iter reg (term_uses b.b_term);
       List.iter target (successors b.b_term))
    f.f_blocks;
  !bad

let resolve_term globals = function
  | Tret (Some o) -> Tret (Some (resolve_opnd globals o))
  | Tcbr (o, a, b) -> Tcbr (resolve_opnd globals o, a, b)
  | (Tret None | Tbr _) as t -> t

(* Test instrumentation: how many full resolutions have run in this
   process.  The cache regression tests pin that repeated runs of one
   module bump this exactly once. *)
let resolutions = ref 0

let resolve (md : modul) : t =
  incr resolutions;
  (* globals placement: fixed addresses from the globals base, in
     declaration order -- a pure function of the module *)
  let globals = Hashtbl.create 17 in
  let cursor = ref Layout46.globals_base in
  List.iter
    (fun g ->
       cursor := align_up !cursor (max g.g_align 8);
       Hashtbl.replace globals g.g_name !cursor;
       cursor := !cursor + g.g_size)
    md.m_globals;
  let globals_end = align_up !cursor Layout46.page_size in
  let funcs = Hashtbl.create 17 in
  let bad = ref None in
  iter_funcs md (fun f ->
      if Array.length f.f_blocks > 0 then begin
        Hashtbl.replace funcs f.f_name (load_func f);
        if !bad = None then bad := malformed f
      end);
  (* phase 2: every function and global address is known -- resolve.
     Iterate in the module's deterministic order so islot assignment is
     reproducible. *)
  let intrins = ref [] in
  let n_islots = ref 0 in
  let islot name =
    let i = !n_islots in
    incr n_islots;
    intrins := name :: !intrins;
    i
  in
  iter_funcs md (fun f ->
      match Hashtbl.find_opt funcs f.f_name with
      | None -> ()
      | Some lf ->
        lf.code <-
          Array.map
            (fun b ->
               Array.of_list
                 (List.map (resolve_instr funcs globals islot) b.b_instrs))
            lf.lf.f_blocks;
        lf.costs <-
          Array.map
            (fun code ->
               Array.fold_left
                 (fun n i -> match i with Vtelem _ -> n | _ -> n + 1)
                 0 code)
            lf.code;
        lf.terms <- Array.map (resolve_term globals) lf.terms);
  {
    md;
    funcs;
    globals;
    globals_end;
    intrin_names = Array.of_list (List.rev !intrins);
    malformed = !bad;
  }

type Tir.Ir.vm_cache += Cached of t

let resolve_cached (md : modul) : t =
  let rec find = function
    | Cached v :: _ -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  match find md.m_vcache with
  | Some v -> v
  | None ->
    let v = resolve md in
    md.m_vcache <- Cached v :: md.m_vcache;
    v
