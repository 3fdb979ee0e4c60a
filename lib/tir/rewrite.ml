(* Instrumentation building blocks, shared by all sanitizer passes: each
   pass names its own intrinsics and picks the blocks it needs, so how a
   check, a tagged global or a tagged stack slot is spliced into the IR
   exists once. *)

open Ir

(* Replaces every instruction [i] by [f i] (a list), in order. *)
let map_instrs (f : instr -> instr list) (fn : func) : unit =
  Array.iter
    (fun b -> b.b_instrs <- List.concat_map f b.b_instrs)
    fn.f_blocks

(* Prepends [instrs] to the entry block. *)
let insert_prologue (fn : func) (instrs : instr list) : unit =
  if Array.length fn.f_blocks > 0 then begin
    let entry = fn.f_blocks.(0) in
    entry.b_instrs <- instrs @ entry.b_instrs
  end

(* Prepends [instrs] to [main]'s entry block, if the module has one. *)
let insert_main_prologue (md : modul) (instrs : instr list) : unit =
  match find_func md "main" with
  | Some main -> insert_prologue main instrs
  | None -> ()

(* Appends instructions before every return.  [mk] is called once per
   returning block (so it can allocate fresh registers per site). *)
let insert_before_rets (fn : func) (mk : unit -> instr list) : unit =
  Array.iter
    (fun b ->
       match b.b_term with
       | Tret _ -> b.b_instrs <- b.b_instrs @ mk ()
       | Tbr _ | Tcbr _ -> ())
    fn.f_blocks

(* Appends a fresh block and returns it. *)
let append_block (fn : func) : block =
  let b =
    { b_id = Array.length fn.f_blocks; b_instrs = []; b_term = Tret None }
  in
  fn.f_blocks <- Array.append fn.f_blocks [| b |];
  b

(* A check call [name(addr, size)] before every load and store whose
   [safe] flag satisfies [checked].  When the check returns the address
   to use, the access goes through its result. *)
let insert_checks (md : modul) ~load ~store ~returns_addr
    ~(checked : bool -> bool) (f : func) : unit =
  let check name addr size =
    let args = [ addr; Imm size ] and site = fresh_site md in
    if returns_addr then begin
      let r = fresh_reg f in
      (Iintrin { dst = Some r; name; args; site }, Reg r)
    end
    else (Iintrin { dst = None; name; args; site }, addr)
  in
  map_instrs
    (function
      | Iload ({ addr; size; safe; _ } as l) when checked safe ->
        let c, addr = check load addr size in
        [ c; Iload { l with addr } ]
      | Istore ({ addr; size; safe; _ } as s) when checked safe ->
        let c, addr = check store addr size in
        [ c; Istore { s with addr } ]
      | i -> [ i ])
    f

(* The unsafe globals, numbered in declaration order: their slots in the
   table of tagged global addresses. *)
let global_slots (md : modul) : (global * int) list =
  List.mapi (fun k g -> (g, k)) (List.filter (fun g -> g.g_unsafe) md.m_globals)

(* Every operand naming an unsafe global becomes the result of a
   [load(slot)] call placed before its instruction.  A branch on such a
   global's address is always taken, so it is folded to [1]. *)
let load_globals (md : modul) ~load (slots : (global * int) list)
    (f : func) : unit =
  let slot_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (g, k) -> Hashtbl.replace slot_of g.g_name k) slots;
  let rewrite_block b =
    b.b_instrs <-
      List.concat_map
        (fun i ->
           let prefix = ref [] in
           let fix o =
             match o with
             | Glob g ->
               (match Hashtbl.find_opt slot_of g with
                | Some k ->
                  let r = fresh_reg f in
                  prefix :=
                    Iintrin { dst = Some r; name = load; args = [ Imm k ];
                              site = fresh_site md }
                    :: !prefix;
                  Reg r
                | None -> o)
             | Reg _ | Imm _ -> o
           in
           (* [fix] pushes onto [prefix]: rewrite before reading it *)
           let i' = map_opnds fix i in
           List.rev (i' :: !prefix))
        b.b_instrs;
    b.b_term <-
      (match b.b_term with
       | Tcbr (Glob g, x, y) when Hashtbl.mem slot_of g -> Tcbr (Imm 1, x, y)
       | t -> t)
  in
  Array.iter rewrite_block f.f_blocks

(* At the start of [main], [make(&g, size, slot)] tags each unsafe
   global and fills its table slot. *)
let make_globals (md : modul) ~make (slots : (global * int) list) : unit =
  insert_main_prologue md
    (List.map
       (fun (g, k) ->
          Iintrin { dst = None; name = make;
                    args = [ Glob g.g_name; Imm g.g_size; Imm k ];
                    site = fresh_site md })
       slots)

(* Stack tagging: [make(&slot, size)] in the prologue yields each unsafe
   slot's tagged pointer, which every slot-address instruction then
   reads, and a [release] call with the arguments [release_args] builds
   from that pointer and the slot runs before every return. *)
let tag_stack (md : modul) ~make ~release
    ~(release_args : opnd -> slot -> opnd list) (f : func) : unit =
  let unsafe = List.filter (fun s -> s.s_unsafe) f.f_slots in
  if unsafe <> [] then begin
    let tag_reg : (int, int) Hashtbl.t = Hashtbl.create 4 in
    List.iter (fun s -> Hashtbl.replace tag_reg s.s_id (fresh_reg f)) unsafe;
    map_instrs
      (function
        | Islot { dst; slot } when Hashtbl.mem tag_reg slot ->
          [ Imov { dst; src = Reg (Hashtbl.find tag_reg slot) } ]
        | i -> [ i ])
      f;
    let prologue =
      List.concat_map
        (fun s ->
           let a = fresh_reg f in
           [ Islot { dst = a; slot = s.s_id };
             Iintrin { dst = Some (Hashtbl.find tag_reg s.s_id); name = make;
                       args = [ Reg a; Imm s.s_size ];
                       site = fresh_site md } ])
        unsafe
    in
    insert_prologue f prologue;
    insert_before_rets f (fun () ->
        List.map
          (fun s ->
             Iintrin { dst = None; name = release;
                       args =
                         release_args (Reg (Hashtbl.find tag_reg s.s_id)) s;
                       site = fresh_site md })
          unsafe)
  end
