(* Generic check-optimization machinery (paper section II.F), shared by
   CECSan and by the ASan-- baseline:

   - redundant-check elimination within a basic block;
   - loop-invariant check hoisting (CECSan: loads AND stores; redzone
     tools: loads only, because a hoisted store check could be defeated
     by the store overwriting the redzone);
   - monotonic check grouping driven by the small scalar-evolution
     analysis in [Tir.Scev]: for affine accesses whose max access range
     is statically determined (the applicability condition of II.F.1),
     the per-iteration checks collapse to checks of the range's
     extremes.  With a dynamic bound the optimization does not apply and
     per-iteration checks remain.

   The sanitizer description consumed here is [Tir.Verify.spec]: the
   same record drives both the transformations and the static verifier
   that re-derives their reasoning (translation validation). *)

open Tir.Ir
module Cfg = Tir.Cfg
module Scev = Tir.Scev

type spec = Tir.Verify.spec = {
  check_load : string;
  check_store : string;
  produces_addr : bool;           (* check dst = stripped address *)
  strip_mask : int;               (* mask replacing an elided strip *)
  may_hoist_stores : bool;
  hazard_intrinsics : string list;(* runtime calls that change metadata *)
  extcall_strip : string option;  (* tag strip required at external calls *)
  absint : Tir.Absint.model option; (* abstract-interpretation model *)
}

let is_check spec name =
  String.equal name spec.check_load || String.equal name spec.check_store

let is_hazard spec name = List.mem name spec.hazard_intrinsics

(* --- redundant check elimination ------------------------------------------ *)

(* Within a block: a second check on the same pointer with a size no
   larger than an already-performed one is dropped (replaced by a move of
   the stripped address when the sanitizer's checks produce one).  Any
   call to a callee that can touch metadata, or any runtime operation
   that can invalidate it, clears the knowledge; metadata-pure callees
   (per [Tir.Analysis.pure_callees], the closure Verify also consults)
   are transparent.  Checks key on the canonical operand through the
   block's copy chains ([Tir.Copies], the table Verify builds its own
   of), so repeated dereferences of the same (copied) pointer
   deduplicate. *)
let redundant (spec : spec) ?(pure = fun _ -> false) (f : func) : int =
  let removed = ref 0 in
  let copies = Tir.Copies.create f.f_nregs in
  (* the block's checks: canonical operand, size, destination *)
  let known = ref [] in
  let canon_opnd = function
    | Reg r -> Reg (Tir.Copies.canon copies r)
    | o -> o
  in
  (* [r] is redefined: a check keyed on it, or whose stripped address
     it held, no longer applies *)
  let stale r (k, _, d) = k = Reg r || d = Some r in
  let kill_reg r =
    match !known with
    | [] -> ()
    | checks ->
      if List.exists (stale r) checks then
        known := List.filter (fun c -> not (stale r c)) checks
  in
  let redefine r =
    kill_reg r;
    Tir.Copies.kill copies r
  in
  Array.iter
    (fun b ->
       Tir.Copies.reset copies;
       known := [];
       b.b_instrs <-
         List.concat_map
           (fun i ->
              match i with
              | Imov { dst; src = Reg s } as i ->
                kill_reg dst;
                Tir.Copies.move copies ~dst ~src:s;
                [ i ]
              | Iintrin { dst; name; args = [ p; Imm size ]; site }
                when is_check spec name ->
                let key = canon_opnd p in
                (match List.find_opt (fun (k, _, _) -> k = key) !known with
                 | Some (_, size0, dst0) when size <= size0 ->
                   incr removed;
                   (* a zero-cost marker keeps the site's count: every
                      execution the eliminated check would have had is
                      recorded as elided *)
                   let marker =
                     Iintrin
                       { dst = None; name = telemetry_elided; args = [];
                         site }
                   in
                   marker
                   :: (match dst, dst0 with
                       | Some d, Some d0 when spec.produces_addr ->
                         [ Imov { dst = d; src = Reg d0 } ]
                       | Some d, _ ->
                         [ Ibin { op = And; dst = d; a = p;
                                  b = Imm spec.strip_mask } ]
                       | None, _ -> [])
                 | _ ->
                   known :=
                     (key, size, dst)
                     :: List.filter (fun (k, _, _) -> k <> key) !known;
                   [ i ])
              | Icall { callee; _ } when not (pure callee) ->
                known := [];
                [ i ]
              | Iintrin { name; _ } when is_hazard spec name ->
                known := [];
                [ i ]
              | i ->
                iter_def redefine i;
                [ i ])
           b.b_instrs)
    f.f_blocks;
  !removed

(* --- loop optimization ---------------------------------------------------- *)

type loop_stats = { hoisted : int; endpoints : int; grouped : int }

let loops (spec : spec) ?(pure = fun _ -> false) (md : modul) (f : func) :
  loop_stats =
  let stats = ref { hoisted = 0; endpoints = 0; grouped = 0 } in
  let cfg0 = Cfg.build f in
  let idom = Cfg.dominators cfg0 in
  let all_loops = Cfg.loops f cfg0 idom in
  (* inner loops first *)
  let all_loops =
    List.sort (fun a b -> compare (List.length a.Cfg.body)
                  (List.length b.Cfg.body)) all_loops
  in
  (* [make_preheader] may append a block and returns a rebuilt Cfg.t;
     thread it so the next loop's preheader query never reads stale
     edge arrays *)
  let cfg = ref cfg0 in
  List.iter
    (fun l ->
       let body_has_hazard =
         List.exists
           (fun bid ->
              List.exists
                (function
                  | Icall { callee; _ } -> not (pure callee)
                  | Iintrin { name; _ } -> is_hazard spec name
                  | _ -> false)
                f.f_blocks.(bid).b_instrs)
           l.Cfg.body
       in
       if not body_has_hazard then begin
         let defined = Cfg.regs_defined_in f l in
         let preheader =
           lazy
             (let p, cfg' = Cfg.make_preheader f !cfg l in
              cfg := cfg';
              p)
         in
         let defs_map = Scev.single_defs f in
         (* invariant modulo copies: resolve through moves/extensions and
            return the canonical operand, usable in the preheader *)
         let invariant = function
           | (Imm _ | Glob _) as o -> Some o
           | Reg r ->
             let cr = Scev.canon defs_map r in
             if Hashtbl.mem defined cr then None else Some (Reg cr)
         in
         List.iter
           (fun bid ->
              let b = f.f_blocks.(bid) in
              b.b_instrs <-
                List.concat_map
                  (fun i ->
                     match i with
                     | Iintrin { dst; name; args = [ p; Imm size ]; site }
                       when is_check spec name ->
                       let is_store = String.equal name spec.check_store in
                       (match invariant p with
                        | Some p'
                          when spec.may_hoist_stores || not is_store ->
                          (* hoist the whole check to the preheader; the
                             in-loop stripped address (if any) becomes a
                             cheap mask of the invariant pointer *)
                          let ph = f.f_blocks.(Lazy.force preheader) in
                          let phr = fresh_reg f in
                          (* the preheader check is NEW work at a fresh
                             site; the original site's per-iteration
                             executions are recorded by a zero-cost
                             covered marker left in the loop body *)
                          ph.b_instrs <-
                            ph.b_instrs
                            @ [ Iintrin { dst = Some phr; name;
                                          args = [ p'; Imm size ];
                                          site = fresh_site md } ];
                          stats :=
                            { !stats with hoisted = !stats.hoisted + 1 };
                          Iintrin
                            { dst = None; name = telemetry_covered;
                              args = []; site }
                          :: (match dst with
                              | Some d when spec.produces_addr ->
                                [ Imov { dst = d; src = Reg phr } ]
                              | Some d -> [ Imov { dst = d; src = p } ]
                              | None -> [])
                        | _ -> begin
                         (* monotonic? p resolves to base + iv*es + off *)
                         match Scev.affine_of defs_map invariant p with
                         | Some (base, elem_size, ir, field_off) ->
                              (match Scev.induction_of f l defs_map ir with
                               | Some ind ->
                                 let bound =
                                   Scev.static_bound f l defs_map ind.iv
                                 in
                                 (match ind.start, bound with
                                  | Some start, Some n
                                    when Scev.endpoint_offsets ~start
                                           ~bound:n ~step:ind.step
                                           ~elem_size ~off:field_off
                                         <> None ->
                                    (* endpoint grouping; applicability
                                       (trip count > 0, no endpoint
                                       overflow) established through the
                                       same guarded helper the verifier
                                       re-derives with *)
                                    let last =
                                      match
                                        Scev.last_index ~start ~bound:n
                                          ~step:ind.step
                                      with
                                      | Some v -> v
                                      | None -> assert false
                                    in
                                    let ph =
                                      f.f_blocks.(Lazy.force preheader)
                                    in
                                    let endpoint idx_val =
                                      let r1 = fresh_reg f in
                                      let r2 = fresh_reg f in
                                      let rc = fresh_reg f in
                                      [ Igep { dst = r1; base;
                                               idx = Some (Imm idx_val);
                                               info = Gindex
                                                   { elem_size;
                                                     count = None } };
                                        Igep { dst = r2; base = Reg r1;
                                               idx = Some (Imm field_off);
                                               info = Gindex
                                                   { elem_size = 1;
                                                     count = None } };
                                        Iintrin
                                          { dst = Some rc; name;
                                            args = [ Reg r2; Imm size ];
                                            site = fresh_site md } ]
                                    in
                                    ph.b_instrs <-
                                      ph.b_instrs @ endpoint start
                                      @ endpoint last;
                                    stats :=
                                      { !stats with
                                        endpoints = !stats.endpoints + 1 };
                                    Iintrin
                                      { dst = None;
                                        name = telemetry_covered;
                                        args = []; site }
                                    :: (match dst with
                                        | Some d when spec.produces_addr ->
                                          [ Ibin { op = And; dst = d; a = p;
                                                   b = Imm spec.strip_mask } ]
                                        | Some d ->
                                          [ Imov { dst = d; src = p } ]
                                        | None -> [])
                                  | _ ->
                                    (* the bound is not statically
                                       determined: section II.F.1 only
                                       applies with a static max access
                                       range, so keep per-iteration
                                       checks *)
                                    ignore site;
                                    [ i ])
                               | None -> [ i ])
                         | None -> [ i ]
                       end)
                     | i -> [ i ])
                  b.b_instrs)
           l.Cfg.body
       end)
    all_loops;
  !stats

(* --- certified elision from abstract interpretation ----------------------- *)

type absint_stats = { elided : int; downgraded : int; facts : int }

(* The whole-module pass consuming [Tir.Absint]: a check whose pointer
   provably stays inside a live, non-escaping object is removed (Welide,
   both halves proved) or renamed to its spatial-only variant
   (Wdowngrade, temporal half proved) -- each carrying a
   [Tir.Witness.t] that Verify replays on the result, against the
   function's fixpoint attached as a certificate it checks first.
   Must run LAST among the check optimizations: the earlier passes key
   on the original check names.

   Elision soundness is an exact-behavior argument against this VM:
   a proven-in-bounds access to a live object passes its check by
   definition, and the degenerate pointers the proofs cannot see behave
   identically with or without the check (a NULL from an injected OOM
   is untagged, and untagged pointers resolve to metadata entry 0,
   which every check passes -- the raw access then faults the same
   way either side of the elision). *)
let absint ~(pure : string -> bool) (md : modul) (spec : spec) :
  absint_stats =
  match spec.absint with
  | None -> { elided = 0; downgraded = 0; facts = 0 }
  | Some model ->
    let ctx = Tir.Absint.make_ctx model ~pure md in
    let elided = ref 0 and downgraded = ref 0 and facts = ref 0 in
    iter_funcs md (fun f ->
        if not f.f_external then begin
          let su = Tir.Absint.analyze ctx f in
          let minted = !elided + !downgraded in
          facts := !facts + Tir.Absint.facts su;
          Array.iter
            (fun b ->
               b.b_instrs <-
                 List.concat_map
                   (fun i ->
                      match i with
                      | Iintrin
                          { dst; name; args = [ Reg p; Imm size ]; site }
                        when List.mem_assoc name
                            model.Tir.Absint.am_checks ->
                        (match Tir.Absint.site_state su site with
                         | None -> [ i ]
                         | Some st ->
                           (match Tir.Absint.regval st p with
                            | Tir.Absint.Vptr { obj; lo; hi } ->
                              let o = su.Tir.Absint.su_objs.(obj) in
                              let freed =
                                Tir.Absint.Int_set.mem obj
                                  st.Tir.Absint.s_freed
                              in
                              if o.Tir.Absint.o_escapes || freed then [ i ]
                              else begin
                                let witness kind =
                                  { Tir.Witness.w_site = site;
                                    w_func = f.f_name; w_kind = kind;
                                    w_reg = p; w_dst = dst; w_size = size;
                                    w_obj = o.Tir.Absint.o_desc;
                                    w_lo = lo; w_hi = hi;
                                    w_objsize = o.Tir.Absint.o_size;
                                    w_temporal = true; w_escapes = false }
                                in
                                if
                                  Tir.Absint.in_bounds ~lo ~hi ~size
                                    ~objsize:o.Tir.Absint.o_size
                                then begin
                                  incr elided;
                                  md.m_witnesses <-
                                    witness Tir.Witness.Welide
                                    :: md.m_witnesses;
                                  Iintrin
                                    { dst = None; name = telemetry_elided;
                                      args = []; site }
                                  :: (match dst with
                                      | Some d ->
                                        [ Ibin { op = And; dst = d;
                                                 a = Reg p;
                                                 b = Imm spec.strip_mask } ]
                                      | None -> [])
                                end
                                else
                                  match
                                    List.assoc name
                                      model.Tir.Absint.am_checks
                                  with
                                  | Some spatial ->
                                    incr downgraded;
                                    md.m_witnesses <-
                                      witness Tir.Witness.Wdowngrade
                                      :: md.m_witnesses;
                                    [ Iintrin
                                        { dst; name = spatial;
                                          args = [ Reg p; Imm size ];
                                          site } ]
                                  | None -> [ i ]
                              end
                            | _ -> [ i ]))
                      | _ -> [ i ])
                   b.b_instrs)
            f.f_blocks;
          (* the witnesses rest on this fixpoint of the IR before the
             rewrite; Verify checks it against the IR after it, where
             each marker and spatial variant transfers as the check it
             replaced *)
          if !elided + !downgraded > minted then
            md.m_certs <- Tir.Absint.certificate su :: md.m_certs
        end);
    { elided = !elided; downgraded = !downgraded; facts = !facts }
