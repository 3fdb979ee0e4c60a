(* Sub-object granularity protection (paper section II.D, Figure 3).

   For a field access whose resulting pointer is *derived from* (indexed,
   or handed to a libc function), CECSan mints a temporary narrowed
   metadata entry covering just the field, re-tags the pointer with it,
   and releases the entry when the pointer goes out of scope.  Loads and
   stores through the narrowed pointer are then checked against the
   field bounds, catching intra-object overflows that object-granularity
   sanitizers cannot see.

   Narrowing is applied when it is provably safe to release the entry at
   the end of the basic block: every (transitive) use of the field
   pointer stays inside the block and is a memory access, a further gep,
   or an argument to an intercepted libc builtin.  Direct full-width
   scalar field accesses are left alone -- they cannot violate sub-object
   bounds and the plain object check already covers them. *)

open Tir.Ir

let acceptable_call callee =
  Minic.Builtins.is_builtin callee
  && not (Sanitizer.Spec.is_alloc_family callee)

(* Substitutes operand [Reg old] -> [Reg fresh] in one instruction. *)
let subst old fresh =
  map_opnds (function Reg r when r = old -> Reg fresh | o -> o)

(* Narrows eligible field geps in [f]; returns the number of sites. *)
let narrow ~make ~release (md : modul) (f : func) : int =
  let used_in = Tir.Analysis.blocks_using f in
  let narrowed = ref 0 in
  Array.iter
    (fun b ->
       let processed : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       let again = ref true in
       while !again do
         again := false;
         let a = Array.of_list b.b_instrs in
         let n = Array.length a in
         (* find the first unprocessed field gep *)
         let cand = ref None in
         (try
            for i = 0 to n - 1 do
              match a.(i) with
              | Igep { dst; idx = None; info = Gfield { fsize; _ }; _ }
                when fsize > 0 && not (Hashtbl.mem processed dst) ->
                cand := Some (i, dst, fsize);
                raise Exit
              | _ -> ()
            done
          with Exit -> ());
         match !cand with
         | None -> ()
         | Some (i, dst, fsize) ->
           Hashtbl.replace processed dst ();
           again := true;
           (* collect the derived family and classify the uses *)
           let family : (int, unit) Hashtbl.t = Hashtbl.create 4 in
           Hashtbl.replace family dst ();
           let eligible = ref true in
           let derived = ref false in
           let last_use = ref i in
           (* substitution for [dst] must stop if dst is redefined *)
           let dst_live_until = ref (n - 1) in
           for j = i + 1 to n - 1 do
             let ins = a.(j) in
             let fam r = Hashtbl.mem family r in
             let uses_fam = List.exists fam (uses ins) in
             if uses_fam && j <= !dst_live_until then begin
               last_use := j;
               match ins with
               | Iload { addr = Reg r; _ } when fam r -> ()
               | Istore { addr = Reg r; src; _ }
                 when fam r
                   && not (match src with Reg s -> fam s | _ -> false) -> ()
               | Igep { dst = d; base = Reg r; _ } when fam r ->
                 derived := true;
                 Hashtbl.replace family d ()
               | Icall { callee; _ } when acceptable_call callee ->
                 derived := true
               | _ -> eligible := false
             end;
             (match defs ins with
              | Some d when Hashtbl.mem family d ->
                (match ins with
                 | Igep { base = Reg r; _ } when Hashtbl.mem family r -> ()
                 | _ ->
                   (* redefinition kills the family member *)
                   Hashtbl.remove family d;
                   if d = dst && !dst_live_until = n - 1 then
                     dst_live_until := j - 1)
              | _ -> ())
           done;
           (* all family members must stay inside this block *)
           Hashtbl.iter
             (fun r () ->
                (match Hashtbl.find_opt used_in r with
                 | Some blocks ->
                   if not
                       (Tir.Analysis.Int_set.subset blocks
                          (Tir.Analysis.Int_set.singleton b.b_id))
                   then eligible := false
                 | None -> ());
                if List.mem r (term_uses b.b_term) then eligible := false)
             family;
           if !eligible && !derived then begin
             incr narrowed;
             let sub = fresh_reg f in
             let out = ref [] in
             Array.iteri
               (fun j ins ->
                  let ins =
                    if j > i && j <= !last_use && j <= !dst_live_until then
                      subst dst sub ins
                    else ins
                  in
                  out := ins :: !out;
                  if j = i then
                    out :=
                      Iintrin { dst = Some sub; name = make;
                                args = [ Reg dst; Imm fsize ];
                                site = fresh_site md }
                      :: !out;
                  if j = !last_use then
                    out :=
                      Iintrin { dst = None; name = release;
                                args = [ Reg sub ]; site = fresh_site md }
                      :: !out)
               a;
             b.b_instrs <- List.rev !out
           end
       done)
    f.f_blocks;
  !narrowed
