(* Link-time module merging.

   CECSan instruments during LTO precisely because that is the moment
   when truly-external functions become distinguishable from
   merely-in-another-translation-unit functions (paper section II.E).
   [merge] combines a secondary module into a primary one:

   - functions defined in the secondary resolve the primary's extern
     stubs; when [mark_external] is set the resolved bodies keep their
     uninstrumented status -- this is how a "precompiled legacy library"
     with real code enters the pipeline;
   - the secondary's internal globals (string literals) are renamed to
     avoid collisions, with all references rewritten: the suffix is the
     unit's position in the link order, so two units never share one;
   - struct layouts must agree across units. *)

open Ir

exception Link_error of string

let err fmt = Fmt.kstr (fun m -> raise (Link_error m)) fmt

let rename_globals (suffix : string) (md : modul) : unit =
  let renames : (string, string) Hashtbl.t = Hashtbl.create 8 in
  md.m_globals <-
    List.map
      (fun g ->
         if g.g_internal then begin
           let fresh = g.g_name ^ suffix in
           Hashtbl.replace renames g.g_name fresh;
           { g with g_name = fresh }
         end
         else g)
      md.m_globals;
  let fix = function
    | Glob name as o ->
      (match Hashtbl.find_opt renames name with
       | Some fresh -> Glob fresh
       | None -> o)
    | o -> o
  in
  iter_funcs md (fun f ->
      Array.iter
        (fun b -> b.b_instrs <- List.map (map_opnds fix) b.b_instrs)
        f.f_blocks)

let check_struct_compat (a : Minic.Layout.env) (b : Minic.Layout.env) : unit =
  Hashtbl.iter
    (fun name (lb : Minic.Layout.struct_layout) ->
       match Hashtbl.find_opt a name with
       | None -> ()
       | Some la ->
         if la.Minic.Layout.s_size <> lb.Minic.Layout.s_size
         || List.length la.Minic.Layout.s_fields
            <> List.length lb.Minic.Layout.s_fields
         then err "struct %s has incompatible layouts across units" name)
    b

(* Merges [secondary], the unit at position [pos] of the link order,
   into [primary] (mutating the primary).  With [mark_external], every
   function body from the secondary is flagged as uninstrumented legacy
   code. *)
let merge ?(mark_external = false) ~(pos : int) ~(primary : modul)
    (secondary : modul) : unit =
  clear_vcache primary;
  check_struct_compat primary.m_layouts secondary.m_layouts;
  Hashtbl.iter
    (fun name l ->
       if not (Hashtbl.mem primary.m_layouts name) then
         Hashtbl.replace primary.m_layouts name l)
    secondary.m_layouts;
  rename_globals (Printf.sprintf ".u%d" pos) secondary;
  (* globals: internal ones were renamed apart, and every name, renamed
     or not, must be unique in the result *)
  List.iter
    (fun g ->
       if find_global primary g.g_name <> None then
         err "duplicate global %s across units" g.g_name)
    secondary.m_globals;
  primary.m_globals <- primary.m_globals @ secondary.m_globals;
  (* functions: secondary definitions resolve primary extern stubs *)
  iter_funcs secondary (fun f ->
      let has_body = Array.length f.f_blocks > 0 in
      let f =
        if mark_external && has_body then
          { f with f_external = true }
        else f
      in
      match find_func primary f.f_name with
      | None -> Hashtbl.replace primary.m_funcs f.f_name f
      | Some existing ->
        let existing_has_body = Array.length existing.f_blocks > 0 in
        (match existing_has_body, has_body with
         | true, true -> err "duplicate definition of %s" f.f_name
         | true, false -> ()  (* secondary only declared it *)
         | false, true -> Hashtbl.replace primary.m_funcs f.f_name f
         | false, false -> ()));
  primary.m_next_site <-
    max primary.m_next_site secondary.m_next_site
