(* Tir.Verify: static certification of instrumented modules.

   Two judgments (DESIGN.md section 11):

   1. [well_formed]: IR well-formedness -- block/terminator integrity,
      register/slot/global/callee resolution, size sanity, return-arity
      agreement, and definite assignment (every register use reached by
      a definition on all paths, computed over the CFG with parameters
      assigned at entry).

   2. [coverage]: a forward must-available dataflow proving, for a
      sanitizer's check [spec], that every unsafe load/store is covered
      by a check whose statically-derived range contains the access.
      Facts are generated by check intrinsics, merged by intersection
      (a fact survives a join only if it holds on every path, which is
      what makes hoisted checks in a dedicated preheader provable and
      checks "hoisted" past a back edge refutable), and killed by
      calls, hazard intrinsics, and redefinition of any register their
      symbolic key depends on.  The affine case re-derives the
      optimizer's endpoint-grouping reasoning from Tir.Scev and demands
      checks at exactly the first and last touched offsets, so a
      widened or shifted endpoint is rejected rather than trusted.

   Run pre- and post-optimization by Sanitizer.Driver, with the
   covered-obligation count required non-shrinking: per-function
   translation validation of the section II.F transforms. *)

open Ir

(* Repeated so that bench/e2e/pipeline.ml's [Tir.Verify.check_load] resolves *)
type spec = Analysis.spec = {
  check_load : string;
  check_store : string;
  spatial : bool;
  intrinsics : Analysis.roles;
  calls : Analysis.roles;
  produces_addr : bool;
  strip_mask : int;
  may_hoist_stores : bool;
  slots : bool;
  certified : bool;
}

type error = {
  e_func : string;
  e_block : int;                  (* -1: function-level *)
  e_what : string;
}

type report = {
  r_errors : error list;
  r_accesses : int;               (* unsafe accesses under obligation *)
  r_covered : int;                (* proven covered by a check *)
  r_funcs : int;                  (* non-external functions examined *)
  r_witnesses : int;              (* elision witnesses successfully replayed *)
}

let pp_error fmt e =
  if e.e_block < 0 then Format.fprintf fmt "%s: %s" e.e_func e.e_what
  else Format.fprintf fmt "%s.b%d: %s" e.e_func e.e_block e.e_what

let error_to_string e = Format.asprintf "%a" pp_error e

let sp = Printf.sprintf

(* --- part 1: well-formedness lint ----------------------------------------- *)

(* Errors accumulate newest first in a [sink]; each entry point reverses
   its sinks once. *)
type sink = error list ref

let push (acc : sink) f b what =
  acc := { e_func = f.f_name; e_block = b; e_what = what } :: !acc

(* Structural checks that must hold before any CFG analysis can run on
   the function; broken structure short-circuits the rest. *)
let structure_errors (f : func) : error list =
  let errs = ref [] in
  let n = Array.length f.f_blocks in
  if n = 0 then push errs f (-1) "function has no blocks";
  Array.iteri
    (fun i b ->
       if b.b_id <> i then
         push errs f i (sp "block id %d does not match its index" b.b_id);
       List.iter
         (fun t ->
            if t < 0 || t >= n then
              push errs f i
                (sp "branch target b%d out of range (%d blocks)" t n))
         (successors b.b_term))
    f.f_blocks;
  List.rev !errs

let valid_access_size s = s = 1 || s = 2 || s = 4 || s = 8

(* Dense bitsets, one word per [Sys.int_size] members.  Sets of one
   analysis all have the same length. *)
module Bits = struct
  let w = Sys.int_size
  let words n = (n + w - 1) / w
  let make n = Array.make (words n) 0
  let mem s i = s.(i / w) land (1 lsl (i mod w)) <> 0
  let add s i = s.(i / w) <- s.(i / w) lor (1 lsl (i mod w))

  let full n =
    let s = make n in
    for i = 0 to n - 1 do add s i done;
    s

  (* [meet] := the intersection of [out.(p)] over the reachable
     predecessors [p] of block [b]; false, leaving [meet] as it was,
     when [b] is the entry or has none *)
  let meet_preds (cfg : Cfg.t) ~entry (out : int array array) meet b =
    let first = ref true in
    if b <> entry then
      List.iter
        (fun p ->
           if cfg.Cfg.rpo_index.(p) >= 0 then
             if !first then begin
               Array.blit out.(p) 0 meet 0 (Array.length meet);
               first := false
             end
             else
               let op = out.(p) in
               for k = 0 to Array.length meet - 1 do
                 meet.(k) <- meet.(k) land op.(k)
               done)
        cfg.Cfg.preds.(b);
    not !first

  (* The must-dataflow both analyses below solve over sets of [n]
     members: [in.(b)] is the intersection of the reachable
     predecessors' [out]s ([boundary] at the entry and at a block with
     none), and [out.(b) = (in.(b) & pass.(b)) | gen.(b)], with every
     [out] starting at [top].  Sweeps the reachable blocks in reverse
     postorder until nothing changes, one [Fuel.burn] per sweep, and
     returns [in]. *)
  let must_solve ?fuel (cfg : Cfg.t) ~n ~top ~boundary ~pass ~gen =
    let nblocks = Array.length cfg.Cfg.preds in
    let words = words n in
    let inn = Array.init nblocks (fun _ -> make n) in
    let out = Array.init nblocks (fun _ -> Array.copy top) in
    let entry = if Array.length cfg.Cfg.rpo > 0 then cfg.Cfg.rpo.(0) else 0 in
    let meet = make n in
    let changed = ref true in
    while !changed do
      changed := false;
      Fuel.burn fuel (Array.length cfg.Cfg.rpo);
      Array.iter
        (fun b ->
           if not (meet_preds cfg ~entry out meet b) then
             Array.blit boundary 0 meet 0 words;
           let ib = inn.(b) and ob = out.(b) and pb = pass.(b)
           and gb = gen.(b) in
           for k = 0 to words - 1 do
             let o = (meet.(k) land pb.(k)) lor gb.(k) in
             if meet.(k) <> ib.(k) || o <> ob.(k) then begin
               ib.(k) <- meet.(k);
               ob.(k) <- o;
               changed := true
             end
           done)
        cfg.Cfg.rpo
    done;
    inn
end

(* Dense indices for the registers a parameter or definition names: a
   register in [0, f_nregs) is its own index, and one outside that
   range (malformed IR the lint reports anyway) gets an index past the
   highest, so it is tracked like any other and never indexes out of
   bounds.  Any other register has no index (-1): nothing defines it.
   Returns the index function and the number of indices. *)
let assigned_index (f : func) : (int -> int) * int =
  let iter_assigned k =
    List.iter k f.f_params;
    Array.iter (fun b -> List.iter (iter_def k) b.b_instrs) f.f_blocks
  in
  (* only registers a parameter or definition names need an index *)
  let dense = ref 0 in
  iter_assigned (fun r ->
      if r >= 0 && r < f.f_nregs then dense := max !dense (r + 1));
  let dense = !dense in
  let extra : (int, int) Hashtbl.t = Hashtbl.create 1 in
  let index r =
    if r >= 0 && r < dense then r
    else
      match Hashtbl.find_opt extra r with
      | Some k -> k
      | None -> -1
  in
  iter_assigned (fun r ->
      if index r < 0 then
        Hashtbl.replace extra r (dense + Hashtbl.length extra));
  (index, dense + Hashtbl.length extra)

(* Definite assignment over the CFG: intersection of assigned-register
   sets over predecessors, parameters assigned at entry.  Subsumes
   def-dominates-use (a dominating definition is on every path).
   Registers with no definition anywhere are skipped: the VM
   zero-initializes the register file, and the front end relies on that
   for never-assigned source variables -- but a register that *is*
   defined somewhere and used on a path its definitions miss indicates
   a broken rewrite.  Sets are bitsets over [assigned_index]; a
   register without an index is never reported. *)
let defassign_errors ?fuel (acc : sink) (f : func) (cfg : Cfg.t)
    (index, n) : unit =
  let nblocks = Array.length f.f_blocks in
  let words = Bits.words n in
  let params = Bits.make n in
  List.iter (fun r -> Bits.add params (index r)) f.f_params;
  let ever_defined = Bits.make n in
  let block_def =
    Array.map
      (fun b ->
         let s = Bits.make n in
         let add d =
           Bits.add s (index d);
           Bits.add ever_defined (index d)
         in
         List.iter (iter_def add) b.b_instrs;
         s)
      f.f_blocks
  in
  let inn =
    Bits.must_solve ?fuel cfg ~n
      ~top:(Array.map2 ( lor ) ever_defined params)
      ~boundary:params
      ~pass:(Array.make nblocks (Bits.full n))
      ~gen:block_def
  in
  let assigned = Bits.make n in
  Array.iter
    (fun bid ->
       let b = f.f_blocks.(bid) in
       Array.blit inn.(bid) 0 assigned 0 words;
       let check_use r =
         let k = index r in
         if k >= 0 && Bits.mem ever_defined k && not (Bits.mem assigned k)
         then push acc f bid (sp "use of r%d not assigned on every path" r)
       in
       let use_opnd = function Reg r -> check_use r | Imm _ | Glob _ -> () in
       let assign d = Bits.add assigned (index d) in
       List.iter
         (fun i ->
            iter_opnds use_opnd i;
            iter_def assign i)
         b.b_instrs;
       List.iter check_use (term_uses b.b_term))
    cfg.Cfg.rpo

(* The names [Glob] operands may resolve to, once per module. *)
let global_names (md : modul) : (string, unit) Hashtbl.t =
  let globals = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace globals g.g_name ()) md.m_globals;
  globals

(* The lint of a structurally sound function, over its [cfg]. *)
let lint_func ?fuel (acc : sink) ~globals (md : modul) (f : func)
    (cfg : Cfg.t) ix : unit =
  let err = push acc f in
  let nslots = List.length f.f_slots in
  let check_reg b r =
    if r < 0 || r >= f.f_nregs then
      err b (sp "register r%d out of range (nregs=%d)" r f.f_nregs)
  in
  (* per-instruction sanity over reachable blocks only (lowering parks
     unreachable code without maintaining its typing invariants) *)
  Array.iter
    (fun bid ->
       let b = f.f_blocks.(bid) in
       let check_opnd = function
         | Reg r -> check_reg bid r
         | Glob g ->
           if not (Hashtbl.mem globals g) then
             err bid (sp "unresolved global @%s" g)
         | Imm _ -> ()
       in
       let check_def = check_reg bid in
       List.iter
         (fun i ->
            iter_opnds check_opnd i;
            iter_def check_def i;
            match i with
            | Islot { slot; _ } ->
              if slot < 0 || slot >= nslots then
                err bid (sp "slot %d out of range (%d slots)" slot nslots)
            | Iload { size; _ } | Istore { size; _ } ->
              if not (valid_access_size size) then
                err bid (sp "access size %d is not 1/2/4/8" size)
            | Isext { bytes; _ } ->
              if not (valid_access_size bytes) then
                err bid (sp "sext width %d is not 1/2/4/8" bytes)
            | Igep { info = Gindex { elem_size; _ }; _ } ->
              if elem_size <= 0 then
                err bid (sp "gep element size %d not positive" elem_size)
            | Icall { callee; args; _ } ->
              (match find_func md callee with
               | Some g ->
                 if List.length args <> List.length g.f_params then
                   err bid
                     (sp "call to %s: %d args, %d params" callee
                        (List.length args) (List.length g.f_params))
               | None ->
                 if not (Minic.Builtins.is_builtin callee) then
                   err bid (sp "unresolved callee %s" callee))
            | _ -> ())
         b.b_instrs;
       List.iter (check_reg bid) (term_uses b.b_term);
       match b.b_term with
       | Tret (Some _) when f.f_ret_void ->
         err bid "void function returns a value"
       | Tret None when not f.f_ret_void ->
         err bid "non-void function returns no value"
       | _ -> ())
    cfg.Cfg.rpo;
  defassign_errors ?fuel acc f cfg ix

(* --- part 2: check-coverage dataflow --------------------------------------- *)

(* Symbolic address keys.  A key names a runtime value for as long as
   none of its dependency registers is redefined; single-definition
   registers resolved through [Tir.Scev.canon] can never be redefined,
   so the only dependencies are the terminal base register and an
   affine key's induction register. *)
type base =
  | Breg of int                    (* canonical, unresolvable register *)
  | Bglob of string
  | Bslot of int

type key =
  | Kabs of int                    (* constant address *)
  | Kbase of base * int            (* base + constant offset *)
  | Kaff of base * int * int * int (* base + iv*elem_size + offset *)

let base_deps = function Breg r -> [ r ] | _ -> []

let key_deps = function
  | Kabs _ -> []
  | Kbase (b, _) -> base_deps b
  | Kaff (b, _, iv, _) -> iv :: base_deps b

let pp_base fmt = function
  | Breg r -> Format.fprintf fmt "r%d" r
  | Bglob g -> Format.fprintf fmt "@%s" g
  | Bslot s -> Format.fprintf fmt "slot%d" s

let pp_key fmt = function
  | Kabs v -> Format.fprintf fmt "%d" v
  | Kbase (b, 0) -> pp_base fmt b
  | Kbase (b, o) -> Format.fprintf fmt "%a+%d" pp_base b o
  | Kaff (b, es, iv, o) ->
    Format.fprintf fmt "%a+r%d*%d+%d" pp_base b iv es o

(* A coverage fact: some check validated [fa_size] bytes at [fa_key];
   when the sanitizer's checks produce the stripped address, [fa_cover]
   is the canonical destination register, and any access whose address
   canonicalizes to it is covered by construction.  Kind matching is
   deliberately interchangeable -- the runtimes validate loads and
   stores identically and the redundant-elimination pass already keys
   on the pointer alone -- except for the redzone store restriction
   enforced at the obligation site. *)
type fact = {
  fa_id : int;                     (* dense id; -1 for in-scan duplicates *)
  fa_size : int;
  fa_block : int;
  fa_key : key;
  fa_cover : int option;
  fa_deps : int list;              (* a definition of any of these kills it *)
}

(* Resolve an operand to a symbolic key at a program point: block-local
   copies ([Tir.Copies], the table the redundant-elimination pass keys
   its checks through) first, then the flow-insensitive
   single-definition chain (moves, wide sexts, tag-strip masks,
   constant gep arithmetic).  Total: anything unresolvable falls back
   to the canonical register naming the value itself, so a check and
   an access over the same opaque pointer still agree on the key. *)
let rec resolve_reg ?strip_mask (defs_map : Scev.defs) (copies : Copies.t) r
  : key =
  let r = Scev.canon ?strip_mask defs_map (Copies.canon copies r) in
  match Hashtbl.find defs_map r with
  | Some (Islot { slot; _ }) -> Kbase (Bslot slot, 0)
  | Some (Imov { src = (Imm _ | Glob _) as o; _ }) ->
    resolve_opnd ?strip_mask defs_map copies o
  | Some (Igep { base; idx = None; info = Gfield { off; _ }; _ }) ->
    shift ?strip_mask defs_map copies base off
  | Some (Igep { base; idx = Some idx; info = Gindex { elem_size; _ }; _ })
    ->
    (match idx with
     | Imm k -> shift ?strip_mask defs_map copies base (k * elem_size)
     | Reg ir ->
       let ir = Scev.canon defs_map (Copies.canon copies ir) in
       (match Scev.const_of defs_map ir with
        | Some k -> shift ?strip_mask defs_map copies base (k * elem_size)
        | None ->
          (match resolve_opnd ?strip_mask defs_map copies base with
           | Kbase (b, o) -> Kaff (b, elem_size, ir, o)
           | _ -> Kbase (Breg r, 0) (* nested affine / constant base *)))
     | Glob _ -> Kbase (Breg r, 0))
  | _ | (exception Not_found) -> Kbase (Breg r, 0)

and shift ?strip_mask defs_map copies base off =
  match resolve_opnd ?strip_mask defs_map copies base with
  | Kabs v -> Kabs (v + off)
  | Kbase (b, o) -> Kbase (b, o + off)
  | Kaff (b, es, iv, o) -> Kaff (b, es, iv, o + off)

and resolve_opnd ?strip_mask defs_map copies = function
  | Imm v -> Kabs v
  | Glob g -> Kbase (Bglob g, 0)
  | Reg r -> resolve_reg ?strip_mask defs_map copies r

(* A key names "the value of its dependency registers at their last
   definition", so its meaning is program-point-relative: the block-local
   copy table can resolve the same operand differently in different
   blocks (in [p = malloc(..); q = p] a check keys on [p] inside that
   block but on the multiply-defined [q] elsewhere).  Both views are
   needed -- the copies view mirrors the redundant-elimination pass, the
   plain view ([Copies.empty]) mirrors the loop pass's flow-insensitive
   [invariant] -- so an operand resolves to one key per view
   (deduplicated), each variant carrying its own kill set. *)
let resolve_keys ?strip_mask defs_map copies o : key list =
  let kc = resolve_opnd ?strip_mask defs_map copies o in
  let kp = resolve_opnd ?strip_mask defs_map Copies.empty o in
  if kc = kp then [ kc ] else [ kc; kp ]

(* The facts a check intrinsic establishes at the current program point:
   one per key view. *)
let facts_of_check (spec : Analysis.spec) ?strip_mask defs_map copies bid
    dst p size : fact list =
  let cover =
    match dst with
    | Some d when spec.produces_addr ->
      Some (Scev.canon ?strip_mask defs_map d)
    | _ -> None
  in
  List.map
    (fun key ->
       let deps =
         let kd = key_deps key in
         match cover with Some c -> c :: kd | None -> kd
       in
       { fa_id = -1; fa_size = size; fa_block = bid; fa_key = key;
         fa_cover = cover; fa_deps = deps })
    (resolve_keys ?strip_mask defs_map copies p)

(* Calls kill facts only when the callee can touch metadata: the
   [Analysis.pure_callees] closure is the same one Checkopt consults,
   so the optimizer cannot keep a fact across a call the verifier
   would not. *)
let block_has_hazard ~hazard ~pure b =
  List.exists
    (function
      | Icall { callee; _ } -> not (pure callee)
      | Iintrin { name; _ } -> hazard name
      | _ -> false)
    b.b_instrs

(* --- witness replay -------------------------------------------------------- *)

(* Re-derive one witness from the site states of the function's
   checked absint certificate ([Absint.check_cert] over the
   post-optimization IR).  Every claimed fact must be implied by the
   derived state: derived offsets contained in the claimed interval,
   same object with the same size, no escape, no reaching free.  For a
   full elision the claimed interval must also prove the access in
   bounds (through the same overflow-guarded predicate Checkopt
   used). *)
let replay_witness (su : Absint.summary) (w : Witness.t) :
  (unit, string) result =
  match Absint.site_state su w.Witness.w_site with
  | None -> Error "no abstract state at site (unreachable or marker missing)"
  | Some st ->
    (match Absint.regval st w.Witness.w_reg with
     | Absint.Vptr { obj; lo; hi } ->
       let o = su.Absint.su_objs.(obj) in
       if not (String.equal o.Absint.o_desc w.Witness.w_obj) then
         Error
           (sp "pointer derives from %s, witness claims %s" o.Absint.o_desc
              w.Witness.w_obj)
       else if not (w.Witness.w_lo <= lo && hi <= w.Witness.w_hi) then
         Error
           (sp "derived offsets [%d,%d] exceed claimed [%d,%d]" lo hi
              w.Witness.w_lo w.Witness.w_hi)
       else if o.Absint.o_size <> w.Witness.w_objsize then
         Error
           (sp "object size %d, witness claims %d" o.Absint.o_size
              w.Witness.w_objsize)
       else if o.Absint.o_escapes || w.Witness.w_escapes then
         Error "object escapes"
       else if
         Absint.Int_set.mem obj st.Absint.s_freed
         || not w.Witness.w_temporal
       then Error "temporal safety not derivable"
       else (
         match w.Witness.w_kind with
         | Witness.Wdowngrade -> Ok ()
         | Witness.Welide ->
           if
             Absint.in_bounds ~lo:w.Witness.w_lo ~hi:w.Witness.w_hi
               ~size:w.Witness.w_size ~objsize:w.Witness.w_objsize
           then Ok ()
           else Error "claimed interval not provably in bounds")
     | _ -> Error "pointer fact not derivable")

(* --- coverage over one function ------------------------------------------- *)

(* What [coverage_func] reads of the module, built once per call of the
   verifier. *)
type env = {
  spec : Analysis.spec;
  strip : string option;                 (* the spec's first [Strip] *)
  pure : string -> bool;
  actx : Absint.ctx Lazy.t option;  (* built for a certified function *)
  wit_by_func : (string, (int, Witness.t) Hashtbl.t) Hashtbl.t;
  certs : (string, Absint.cert) Hashtbl.t;
  no_wit : (int, Witness.t) Hashtbl.t;  (* stays empty *)
}

type counts = {
  mutable accesses : int;
  mutable covered : int;
  mutable witnesses : int;
}

(* Coverage of one structurally sound function over its [cfg]: errors
   into [acc], counters into [n].  Every table here lives for this call
   only. *)
let coverage_func ?fuel (env : env) (acc : sink) (n : counts) (md : modul)
    (f : func) (cfg : Cfg.t) (index, nidx) : unit =
  let spec = env.spec and pure = env.pure in
  let hazard name = Analysis.(is_hazard (meaning spec name)) in
  let is_check name =
    match Analysis.meaning spec name with
    | Check _ | Spatial _ -> true
    | _ -> false
  in
  (* spatial-only check variants: a site carrying one MUST hold a valid
     Wdowngrade witness -- the optimizer may only weaken a check it has
     certified *)
  let is_spatial name =
    match Analysis.meaning spec name with Spatial _ -> true | _ -> false
  in
  let wit =
    Option.value (Hashtbl.find_opt env.wit_by_func f.f_name)
      ~default:env.no_wit
  in
  let strip_mask = Some spec.strip_mask in
  let defs_map = Scev.single_defs f in
  let nblocks = Array.length f.f_blocks in
  let reachable b = cfg.Cfg.rpo_index.(b) >= 0 in
  let err = push acc f in

  (* witness replay: check the function's absint certificate against
     the post-optimization IR, validate every witness against the site
     states that check yields, then require one at every site the
     optimizer weakened.  Only validated witnesses generate coverage
     facts, so a missing or rejected certificate or an unprovable
     claim both errors AND leaves the former obligations uncovered. *)
  let valid_wit : (int, Witness.t) Hashtbl.t = Hashtbl.create 8 in
  let has_spatial =
    Array.exists
      (fun b ->
         List.exists
           (function
             | Iintrin { name; _ } -> is_spatial name
             | _ -> false)
           b.b_instrs)
      f.f_blocks
  in
  (match env.actx with
   | None ->
     Hashtbl.iter
       (fun site (_ : Witness.t) ->
          err (-1)
            (sp "witness at site %d but the tool declares no absint model"
               site))
       wit;
     if has_spatial then
       err (-1) "spatial-only checks present without an absint model"
   | Some actx ->
     if Hashtbl.length wit > 0 || has_spatial then begin
       match Hashtbl.find_opt env.certs f.f_name with
       | None -> err (-1) "no absint certificate for the elided checks"
       | Some c ->
         (match Absint.check_cert ?fuel (Lazy.force actx) f c with
          | Error what ->
            err (-1) (sp "absint certificate rejected: %s" what)
          | Ok su ->
            Hashtbl.iter
              (fun site w ->
                 match replay_witness su w with
                 | Ok () -> Hashtbl.replace valid_wit site w
                 | Error what ->
                   err (-1)
                     (sp "witness replay failed at site %d: %s" site what))
              wit)
     end);
  (* each witness must sit at the kind of site it claims; spatial-only
     checks must carry a valid downgrade certificate *)
  let sites_present : (int, unit) Hashtbl.t =
    Hashtbl.create (if Hashtbl.length wit > 0 then 16 else 1)
  in
  Array.iter
    (fun bid ->
       List.iter
         (fun i ->
            match i with
            | Iintrin { name; site; _ } ->
              Hashtbl.replace sites_present site ();
              if is_spatial name then
                (match Hashtbl.find_opt valid_wit site with
                 | Some w when w.Witness.w_kind = Witness.Wdowngrade -> ()
                 | Some _ ->
                   err bid
                     (sp "spatial check %s at site %d carries a non-downgrade \
                          witness" name site)
                 | None ->
                   err bid
                     (sp "spatial check %s at site %d lacks a valid \
                          downgrade witness" name site))
              else if
                String.equal name telemetry_elided && Hashtbl.mem wit site
              then
                (match Hashtbl.find_opt valid_wit site with
                 | Some w when w.Witness.w_kind = Witness.Welide -> ()
                 | Some _ ->
                   err bid
                     (sp "elided site %d carries a non-elide witness" site)
                 | None -> () (* replay already errored *))
              else if Hashtbl.mem wit site then
                err bid
                  (sp "witness at site %d does not sit at an elided or \
                       downgraded check" site)
            | _ -> ())
         f.f_blocks.(bid).b_instrs)
    cfg.Cfg.rpo;
  Hashtbl.iter
    (fun site (_ : Witness.t) ->
       if not (Hashtbl.mem sites_present site) then
         err (-1) (sp "dangling witness: site %d does not exist" site))
    wit;

  (* the transfer function of one instruction over the live-fact list
     and the block-local copy table, both reset per block; shared by
     the summary scan and the obligation scan so the two can never
     drift apart.  The live list is rebuilt only when a definition
     kills one of its facts. *)
  let copies = Copies.create f.f_nregs in
  let live = ref [] in
  let rec dies d = function
    | [] -> false
    | fa :: rest -> List.mem d fa.fa_deps || dies d rest
  in
  let kill_facts d =
    if dies d !live then
      live := List.filter (fun fa -> not (List.mem d fa.fa_deps)) !live
  in
  let redefine d =
    kill_facts d;
    Copies.kill copies d
  in
  let step bid i =
    (match i with
     | Icall { callee; _ } when not (pure callee) -> live := []
     | Iintrin { name; _ } when hazard name -> live := []
     | _ -> ());
    (match i with
     | Imov { dst; src = Reg s } ->
       kill_facts dst;
       Copies.move copies ~dst ~src:s
     | _ -> iter_def redefine i);
    match i with
    | Iintrin { dst; name; args = [ p; Imm size ]; _ }
      when is_check name ->
      facts_of_check spec ?strip_mask defs_map copies bid dst p size
    | Iintrin { name; args = []; site; _ }
      when String.equal name telemetry_elided ->
      (* a certified elision re-establishes the elided check's fact:
         the witness replay has already proved the access in bounds
         and the object alive here *)
      (match Hashtbl.find_opt valid_wit site with
       | Some w when w.Witness.w_kind = Witness.Welide ->
         facts_of_check spec ?strip_mask defs_map copies bid
           w.Witness.w_dst (Reg w.Witness.w_reg) w.Witness.w_size
       | _ -> [])
    | _ -> []
  in

  (* 1. collect facts and per-block summaries in one forward scan *)
  let facts = ref [] in
  let nfacts = ref 0 in
  let gen_end = Array.make nblocks [] in
  let has_hazard = Array.make nblocks false in
  let block_defs = Array.make nblocks [||] in
  let add_fact fa =
    let fa = { fa with fa_id = !nfacts } in
    incr nfacts;
    facts := fa :: !facts;
    live := fa :: !live
  in
  Array.iter
    (fun b ->
       if reachable b.b_id then begin
         Copies.reset copies;
         live := [];
         let defs = Bits.make nidx in
         let add_def d = Bits.add defs (index d) in
         List.iter
           (fun i ->
              iter_def add_def i;
              List.iter add_fact (step b.b_id i))
           b.b_instrs;
         block_defs.(b.b_id) <- defs;
         has_hazard.(b.b_id) <- block_has_hazard ~hazard ~pure b;
         gen_end.(b.b_id) <- !live
       end)
    f.f_blocks;
  let nfacts = !nfacts in
  let fact_arr = Array.of_list (List.rev !facts) in

  (* 2. must-available fixpoint over bitsets of fact ids: IN =
     intersection over predecessor OUTs (optimistic top
     initialization); a fact flowing through a block survives iff the
     block has no call/hazard and defines none of its dependency
     registers *)
  let all_facts = Bits.full nfacts in
  let gen = Array.make nblocks [||] and pass = Array.make nblocks [||] in
  Array.iter
    (fun b ->
       let g = Bits.make nfacts in
       List.iter (fun fa -> if fa.fa_id >= 0 then Bits.add g fa.fa_id)
         gen_end.(b);
       gen.(b) <- g;
       let p = Bits.make nfacts in
       if not has_hazard.(b) then begin
         let defs = block_defs.(b) in
         Array.iter
           (fun fa ->
              if
                not
                  (List.exists
                     (fun r ->
                        let k = index r in
                        k >= 0 && Bits.mem defs k)
                     fa.fa_deps)
              then Bits.add p fa.fa_id)
           fact_arr
       end;
       pass.(b) <- p)
    cfg.Cfg.rpo;
  let inn =
    Bits.must_solve ?fuel cfg ~n:nfacts ~top:all_facts
      ~boundary:(Bits.make nfacts) ~pass ~gen
  in

  (* 3. the obligation pass: exact in-block scan from IN[b] *)
  (* the loops and their SCEV facts, derived on the first affine access
     and memoized per (loop, induction register) for this call *)
  let loops =
    lazy
      (let idom = Cfg.dominators cfg in
       ( Cfg.loops f cfg idom
         |> List.sort (fun a b ->
             compare (List.length a.Cfg.body) (List.length b.Cfg.body)),
         Hashtbl.create 8 ))
  in
  let range l iv =
    let _, memo = Lazy.force loops in
    match Hashtbl.find_opt memo (l.Cfg.header, iv) with
    | Some r -> r
    | None ->
      let r =
        match Scev.induction_of f l defs_map iv with
        | Some { iv = _; start = Some start; step } ->
          Option.map
            (fun bound -> (start, bound, step))
            (Scev.static_bound f l defs_map iv)
        | _ -> None
      in
      Hashtbl.replace memo (l.Cfg.header, iv) r;
      r
  in
  let endpoint_offsets bid es iv off =
    (* re-derive the optimizer's applicability condition and compute
       the exact first/last offsets a grouped check must pin, through
       the same overflow-guarded Scev helper the optimizer used *)
    List.filter_map
      (fun l ->
         if not (List.mem bid l.Cfg.body) then None
         else
           Option.bind (range l iv) (fun (start, bound, step) ->
               Scev.endpoint_offsets ~start ~bound ~step ~elem_size:es ~off))
      (fst (Lazy.force loops))
  in
  Array.iter
    (fun bid ->
       let b = f.f_blocks.(bid) in
       Fuel.burn fuel (List.length b.b_instrs);
       Copies.reset copies;
       live := [];
       let ib = inn.(bid) in
       for id = nfacts - 1 downto 0 do
         if Bits.mem ib id then live := fact_arr.(id) :: !live
       done;
       let check_covered ~kind ~size addr =
         n.accesses <- n.accesses + 1;
         let live_facts = !live in
         let size_ok fa = fa.fa_size >= size in
         let block_ok fa =
           (* a redzone-style tool must not satisfy a store through a
              check from another block: the store itself can smash the
              redzone a hoisted check inspected *)
           match kind with
           | `Store when not spec.may_hoist_stores -> fa.fa_block = bid
           | _ -> true
         in
         let direct_cover () =
           match addr with
           | Reg r ->
             let cr =
               Scev.canon ?strip_mask defs_map (Copies.canon copies r)
             in
             List.exists
               (fun fa ->
                  fa.fa_cover = Some cr && size_ok fa && block_ok fa)
               live_facts
           | Imm _ | Glob _ -> false
         in
         let keys = resolve_keys ?strip_mask defs_map copies addr in
         let key_cover key =
           List.exists
             (fun fa -> fa.fa_key = key && size_ok fa && block_ok fa)
             live_facts
         in
         let affine_cover key =
           (* grouped endpoints: both extreme offsets pinned by
              available checks of sufficient size *)
           match key with
           | Kaff (base, es, iv, off) ->
             let pinned o =
               List.exists
                 (fun fa -> fa.fa_key = Kbase (base, o) && size_ok fa)
                 live_facts
             in
             List.exists
               (fun (o0, o1) -> pinned o0 && pinned o1)
               (endpoint_offsets bid es iv off)
           | _ -> false
         in
         if
           direct_cover ()
           || List.exists (fun k -> key_cover k || affine_cover k) keys
         then n.covered <- n.covered + 1
         else
           err bid
             (sp "unsafe %s.%d at %s has no covering %s"
                (match kind with `Load -> "load" | `Store -> "store")
                size
                (String.concat " / "
                   (List.map (Format.asprintf "%a" pp_key) keys))
                (match kind with
                 | `Load -> spec.check_load
                 | `Store -> spec.check_store))
       in
       let check_stripped_call callee args =
         match env.strip, find_func md callee with
         | Some strip_name, Some { f_external = true; f_sig_ptrs; _ } ->
           List.iteri
             (fun k a ->
                let is_ptr =
                  match List.nth_opt f_sig_ptrs k with
                  | Some p -> p
                  | None -> false
                in
                let stripped =
                  match a with
                  | Imm _ -> true  (* constants carry no tag *)
                  | Glob _ -> false
                  | Reg r ->
                    (match
                       Hashtbl.find_opt defs_map (Copies.canon copies r)
                     with
                     | Some (Some (Iintrin { name; _ })) ->
                       String.equal name strip_name
                     | _ -> false)
                in
                if is_ptr && not stripped then
                  err bid
                    (sp
                       "pointer argument %d of external call to %s is \
                        not %s-stripped"
                       k callee strip_name))
             args
         | _ -> ()
       in
       List.iter
         (fun i ->
            (* obligations see the facts established strictly before
               the instruction *)
            (match i with
             | Iload { addr; size; safe = false; _ } ->
               check_covered ~kind:`Load ~size addr
             | Istore { addr; size; safe = false; _ } ->
               check_covered ~kind:`Store ~size addr
             | Icall { callee; args; _ } -> check_stripped_call callee args
             | _ -> ());
            match step bid i with
            | [] -> ()
            | fresh -> live := fresh @ !live)
         b.b_instrs)
    cfg.Cfg.rpo;
  n.witnesses <- n.witnesses + Hashtbl.length valid_wit

(* The module-level half of coverage: index the module's witnesses by
   function, rejecting duplicates and certificates naming unknown or
   external functions (errors into [acc]), and pick each function's
   newest certificate, the one its witnesses rest on. *)
let coverage_env (spec : Analysis.spec) (acc : sink) (md : modul) : env =
  (* the metadata-pure callees and, for a certified tool, the absint
     context over them, built for the first certified function *)
  let pure = Analysis.pure_callees md spec in
  let actx =
    if spec.certified then Some (lazy (Absint.make_ctx spec ~pure md))
    else None
  in
  let wit_by_func = Hashtbl.create 7 in
  List.iter
    (fun (w : Witness.t) ->
       let bad what =
         acc := { e_func = w.Witness.w_func; e_block = -1; e_what = what }
                :: !acc
       in
       match find_func md w.Witness.w_func with
       | None ->
         bad (sp "witness names unknown function (site %d)" w.Witness.w_site)
       | Some { f_external = true; _ } ->
         bad (sp "witness names external function (site %d)" w.Witness.w_site)
       | Some _ ->
         let tbl =
           match Hashtbl.find_opt wit_by_func w.Witness.w_func with
           | Some tbl -> tbl
           | None ->
             let tbl = Hashtbl.create 8 in
             Hashtbl.replace wit_by_func w.Witness.w_func tbl;
             tbl
         in
         if Hashtbl.mem tbl w.Witness.w_site then
           bad (sp "duplicate witness at site %d" w.Witness.w_site)
         else Hashtbl.replace tbl w.Witness.w_site w)
    md.m_witnesses;
  let certs = Hashtbl.create 7 in
  List.iter
    (function
      | Absint.Fixpoint c when not (Hashtbl.mem certs c.Absint.c_func) ->
        Hashtbl.replace certs c.Absint.c_func c
      | _ -> ())
    md.m_certs;
  let strip =
    List.find_map
      (function name, Analysis.Strip -> Some name | _ -> None)
      spec.intrinsics.declared
  in
  { spec; strip; pure; actx; wit_by_func; certs; no_wit = Hashtbl.create 1 }

(* One pass over the module's defined functions: the lint, and coverage
   under [spec].  Each function's structure check, CFG and register
   index are built once and shared by both halves.  Returns the lint's
   errors and the coverage report. *)
let verify ?fuel (spec : Analysis.spec option) (md : modul) :
  error list * report =
  let wf = ref [] and cov = ref [] in
  let env = Option.map (fun s -> coverage_env s cov md) spec in
  (* the module-level witness errors were listed newest first *)
  cov := List.rev !cov;
  let globals = global_names md in
  let n = { accesses = 0; covered = 0; witnesses = 0 } in
  let funcs = ref 0 in
  iter_funcs md (fun f ->
      if not f.f_external then begin
        incr funcs;
        match structure_errors f with
        | _ :: _ as broken ->
          (* coverage has nothing to prove on a broken function *)
          wf := List.rev_append broken !wf
        | [] ->
          let cfg = Cfg.build f in
          let ix = assigned_index f in
          lint_func ?fuel wf ~globals md f cfg ix;
          Option.iter
            (fun env -> coverage_func ?fuel env cov n md f cfg ix)
            env
      end);
  ( List.rev !wf,
    { r_errors = List.rev !cov; r_accesses = n.accesses;
      r_covered = n.covered; r_funcs = !funcs; r_witnesses = n.witnesses } )

(* What coverage replays witnesses and checks certificates against. *)
let absint_ctx (spec : Analysis.spec) (md : modul) =
  if spec.certified then
    Some (Absint.make_ctx spec ~pure:(Analysis.pure_callees md spec) md)
  else None

let well_formed ?fuel (md : modul) : error list = fst (verify ?fuel None md)

let check ?spec ?fuel (md : modul) : report =
  let wf, cov = verify ?fuel spec md in
  { cov with r_errors = wf @ cov.r_errors }
