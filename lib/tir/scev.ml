(* Mini scalar-evolution and constant-propagation toolkit, extracted
   from the section II.F check optimizer so the static verifier
   (Tir.Verify) can re-derive the optimizer's reasoning independently.

   Everything here is flow-insensitive over single-definition registers:
   a register defined exactly once in the function resolves through
   value-preserving moves/extensions; anything multiply defined is its
   own canonical representative. *)

open Ir

type defs = (int, instr option) Hashtbl.t

(* Map reg -> its single defining instruction across the function; regs
   with several defs map to None. *)
let single_defs (f : func) : defs =
  let defs_map : defs = Hashtbl.create 32 in
  Array.iter
    (fun b ->
       List.iter
         (fun i ->
            match defs i with
            | Some d ->
              if Hashtbl.mem defs_map d then Hashtbl.replace defs_map d None
              else Hashtbl.replace defs_map d (Some i)
            | None -> ())
         b.b_instrs)
    f.f_blocks;
  defs_map

(* Resolve a register through value-preserving moves/extensions.
   [strip_mask]: additionally resolve through [r' = r land mask] -- the
   verifier treats a tag-stripped pointer as an alias of the tagged one
   (same object, same accessible range). *)
let rec canon ?strip_mask (defs_map : defs) r =
  match Hashtbl.find defs_map r with
  | Some (Imov { src = Reg s; _ }) -> canon ?strip_mask defs_map s
  | Some (Isext { src = Reg s; bytes; _ }) when bytes >= 4 ->
    canon ?strip_mask defs_map s
  | Some (Ibin { op = And; a = Reg s; b = Imm m; _ })
    when (match strip_mask with Some mask -> m = mask | None -> false) ->
    canon ?strip_mask defs_map s
  | _ -> r
  | exception Not_found -> r

(* A register whose (single) definition is a compile-time constant,
   resolved through moves/extensions: the mini constant propagation that
   lets loop bounds held in named variables count as "statically
   determined". *)
let const_of (defs_map : defs) r : int option =
  match Hashtbl.find defs_map (canon defs_map r) with
  | Some (Imov { src = Imm v; _ }) | Some (Isext { src = Imm v; _ }) -> Some v
  | _ -> None
  | exception Not_found -> None

(* --- overflow-guarded endpoint arithmetic ------------------------------- *)

(* OCaml ints wrap silently; endpoint math near max_int must not.  Each
   helper returns None instead of a wrapped result, and both the
   optimizer and the verifier go through the SAME functions so neither
   can accept an endpoint the other would reject. *)

let add_no_ov a b =
  let s = a + b in
  if (b > 0 && s < a) || (b < 0 && s > a) then None else Some s

let sub_no_ov a b =
  let s = a - b in
  if (b < 0 && s < a) || (b > 0 && s > a) then None else Some s

let mul_no_ov a b =
  if a = 0 || b = 0 then Some 0
  else if a = min_int || b = min_int then None
    (* min_int products either wrap or make the [p / b] probe itself
       overflow (min_int / -1); reject them outright *)
  else
    let p = a * b in
    if p / b = a then Some p else None

(* Last induction value in [start, bound) with stride [step]:
   start + ((bound - 1 - start) / step) * step.  None on a non-positive
   stride, a zero-trip-count loop, or any intermediate overflow. *)
let last_index ~start ~bound ~step =
  if step <= 0 || bound <= start then None
  else
    match sub_no_ov bound 1 with
    | None -> None
    | Some bm1 ->
      (match sub_no_ov bm1 start with
       | None -> None
       | Some span ->
         (* span >= 0, span/step*step <= span: start + it <= bm1 and
            cannot wrap *)
         Some (start + span / step * step))

(* First/last byte offsets of the access pattern
   [iv*elem_size + off, iv in start..bound) step step].  None whenever
   the loop has no iterations or any endpoint computation overflows. *)
let endpoint_offsets ~start ~bound ~step ~elem_size ~off =
  match last_index ~start ~bound ~step with
  | None -> None
  | Some last ->
    (match mul_no_ov start elem_size, mul_no_ov last elem_size with
     | Some a, Some b ->
       (match add_no_ov a off, add_no_ov b off with
        | Some x, Some y -> Some (x, y)
        | _ -> None)
     | _ -> None)

type induction = { iv : int; start : int option; step : int }

(* The unique start value of [iv] found from definitions outside the
   loop: Some v when exactly one constant def exists, None otherwise. *)
let start_of (f : func) (l : Cfg.loop) iv : int option =
  let start = ref None in
  let multiple = ref false in
  Array.iter
    (fun b ->
       if not (List.mem b.b_id l.Cfg.body) then
         List.iter
           (fun i ->
              match defs i with
              | Some d when d = iv ->
                (match i with
                 | Imov { src = Imm v; _ } | Isext { src = Imm v; _ } ->
                   if !start = None then start := Some v else multiple := true
                 | _ -> multiple := true)
              | _ -> ())
           b.b_instrs)
    f.f_blocks;
  if !multiple then None else !start

(* Recognizes [iv = iv + step] (modulo moves/sexts) as the only real
   definition of [iv] inside the loop, with the start value found from
   the unique definition reaching the preheader. *)
let induction_of (f : func) (l : Cfg.loop) (defs_map : defs) (r : int) :
  induction option =
  let iv = canon defs_map r in
  (* collect real (non-move) defs of iv inside the loop *)
  let in_loop_defs = ref [] in
  List.iter
    (fun bid ->
       List.iter
         (fun i ->
            match defs i with
            | Some d when d = iv ->
              (match i with
               | Imov { src = Reg s; _ } when canon defs_map s = iv -> ()
               | Isext { src = Reg s; bytes; _ }
                 when bytes >= 4 && canon defs_map s = iv -> ()
               | _ -> in_loop_defs := i :: !in_loop_defs)
            | _ -> ())
         f.f_blocks.(bid).b_instrs)
    l.Cfg.body;
  match !in_loop_defs with
  | [ Ibin { op = Add; a = Reg x; b = Imm step; _ } ]
    when canon defs_map x = iv && step > 0 ->
    Some { iv; start = start_of f l iv; step }
  | [ Isext { src = Reg x; _ } ] ->
    (match Hashtbl.find_opt defs_map (canon defs_map x) with
     | Some (Some (Ibin { op = Add; a = Reg y; b = Imm step; _ }))
       when canon defs_map y = iv && step > 0 ->
       Some { iv; start = start_of f l iv; step }
     | _ -> None)
  | _ -> None

(* Static trip bound: header terminates on [iv < N] (or [iv <= N-1]). *)
let static_bound (f : func) (l : Cfg.loop) (defs_map : defs) iv : int option =
  let bound_value = function
    | Imm n -> Some n
    | Reg rn -> const_of defs_map rn
    | Glob _ -> None
  in
  match f.f_blocks.(l.Cfg.header).b_term with
  | Tcbr (Reg c, _, _) ->
    (match Hashtbl.find_opt defs_map c with
     | Some (Some (Icmp { op = Lt; a = Reg x; b; _ }))
       when canon defs_map x = iv -> bound_value b
     | Some (Some (Icmp { op = Le; a = Reg x; b; _ }))
       when canon defs_map x = iv ->
       (* iv <= max_int has no representable exclusive bound *)
       Option.bind (bound_value b) (fun n -> add_no_ov n 1)
     | _ -> None)
  | _ -> None

(* Resolve the definition chain of a checked address to an affine form
   [base + iv*elem_size + off]: either a direct indexed gep, or an
   indexed gep wrapped by a constant field offset (struct-array
   patterns like a[i].field).  [invariant] filters/canonicalizes the
   base operand (the optimizer requires it loop-invariant; the verifier
   passes a plain canonicalizer). *)
let affine_of ?strip_mask (defs_map : defs)
    (invariant : opnd -> opnd option) (p : opnd) :
  (opnd * int * int * int) option =
  match p with
  | Imm _ | Glob _ -> None
  | Reg pr ->
    let pr = canon ?strip_mask defs_map pr in
    let direct r =
      match Hashtbl.find_opt defs_map r with
      | Some (Some (Igep { base; idx = Some (Reg ir);
                           info = Gindex { elem_size; _ }; _ })) ->
        (match invariant base with
         | Some base' -> Some (base', elem_size, ir, 0)
         | None -> None)
      | _ -> None
    in
    (match direct pr with
     | Some a -> Some a
     | None ->
       (* field wrap: p = gep (gep base (iv x es)) +off *)
       (match Hashtbl.find_opt defs_map pr with
        | Some (Some (Igep { base = Reg rb; idx = None;
                             info = Gfield { off; _ }; _ })) ->
          (match direct (canon ?strip_mask defs_map rb) with
           | Some (base', es, ir, o) -> Some (base', es, ir, o + off)
           | None -> None)
        | _ -> None))
