(* Fuzz.Corpus: the coverage-keyed tape corpus of a guided campaign.

   Admission is novelty-keyed: a tape enters iff its bitmap carries at
   least one (leg, site, kind) bit the accumulated bitmap lacks, so the
   corpus only ever grows the campaign's coverage frontier and the
   accumulated bitmap is always exactly the union of the entries'
   bitmaps.  Admission decisions are made sequentially in submission
   order (the pool hands results back in submission order), which is
   what keeps the corpus byte-identical at any job count.

   [minimize] is the classic greedy set cover over the same bitmap:
   repeatedly keep the entry covering the most still-uncovered bits
   (ties to the lowest admission id), until the full bitmap is covered.
   The pass is deterministic and idempotent — rerunning it over its own
   output picks the same entries in the same order — and
   coverage-preserving by construction.

   The on-disk format is line-based like the campaign checkpoint it
   composes with, written atomically via Harness.Jsonio:

     cecsan-corpus v1
     entry id=<int> seed=<hex> phase=<s> tape=<csv|-> cov=<csv|->
     ...
     end

   Loading a saved corpus and saving it again reproduces the file byte
   for byte. *)

let sp = Printf.sprintf

type entry = {
  e_id : int;            (* admission index, stable across minimize *)
  e_seed : int;          (* the engine seed the tape came from *)
  e_phase : string;      (* "gen" or "mutate:<op>"; no spaces *)
  e_tape : int array;
  e_cov : Coverage.t;    (* the entry's own bitmap *)
}

type t = {
  entries : entry list;  (* admission order *)
  acc : Coverage.t;      (* union of the entries' bitmaps *)
  next_id : int;
}

let empty = { entries = []; acc = Coverage.empty; next_id = 0 }

let size c = List.length c.entries
let entries c = c.entries
let accumulated c = c.acc

let nth_tape c i =
  match List.nth_opt c.entries i with
  | Some e -> e.e_tape
  | None -> invalid_arg "Corpus.nth_tape"

(* [admit] in submission order only: the pair is the new corpus and
   whether the tape was admitted (i.e. lit a bit [acc] lacked). *)
let admit c ~seed ~phase ~tape ~cov =
  if not (Coverage.novel cov ~acc:c.acc) then (c, false)
  else
    let e =
      { e_id = c.next_id; e_seed = seed; e_phase = phase; e_tape = tape;
        e_cov = cov }
    in
    ( { entries = c.entries @ [ e ];
        acc = Coverage.union c.acc cov;
        next_id = c.next_id + 1 },
      true )

(* AFL-style favored scheduling: the top quarter of entries ranked by
   distinct sites, then bitmap cardinality, then recency (higher id
   first).  Mutation bases drawn from here keep the engine working on
   the deepest programs instead of uniformly re-mutating shallow ones.
   Deterministic: the ranking is a pure function of the corpus. *)
let favored c : entry list =
  let ranked =
    List.sort
      (fun a b ->
         match compare (Coverage.sites b.e_cov) (Coverage.sites a.e_cov) with
         | 0 ->
           (match
              compare (Coverage.cardinal b.e_cov) (Coverage.cardinal a.e_cov)
            with
            | 0 -> compare b.e_id a.e_id
            | c -> c)
         | c -> c)
      c.entries
  in
  let keep = max 1 (List.length ranked / 4) in
  List.filteri (fun i _ -> i < keep) ranked

(* --- greedy set-cover minimization ----------------------------------------- *)

let minimize c =
  let target =
    List.fold_left
      (fun acc e -> Coverage.union acc e.e_cov)
      Coverage.empty c.entries
  in
  let rec go covered remaining kept =
    if Coverage.is_subset target covered then kept
    else
      let best =
        List.fold_left
          (fun best e ->
             let gain = Coverage.novel_count e.e_cov ~acc:covered in
             match best with
             | Some (_, bg) when bg >= gain -> best  (* ties: lowest id *)
             | _ when gain = 0 -> best
             | _ -> Some (e, gain))
          None remaining
      in
      match best with
      | None -> kept  (* nothing gains: target unreachable (empty set) *)
      | Some (e, _) ->
        go
          (Coverage.union covered e.e_cov)
          (List.filter (fun e' -> e'.e_id <> e.e_id) remaining)
          (e :: kept)
  in
  let kept = go Coverage.empty c.entries [] in
  let entries =
    List.sort (fun a b -> compare a.e_id b.e_id) kept
  in
  { entries; acc = target; next_id = c.next_id }

(* --- serialization --------------------------------------------------------- *)

let corpus_file = "corpus.v1.ckpt"
let magic = "cecsan-corpus v1"

let csv_or_dash tape =
  if Array.length tape = 0 then "-" else Tape.to_string tape

let tape_of_field = function
  | "-" -> Some [||]
  | s -> Tape.of_string s

let entry_to_line e =
  sp "entry id=%d seed=%x phase=%s tape=%s cov=%s" e.e_id e.e_seed e.e_phase
    (csv_or_dash e.e_tape) (Coverage.to_string e.e_cov)

(* Only what [entry_to_line] prints: [%d] and [%x] alone would also
   read "02", "+2", "1_2" or "00ff". *)
let entry_of_line line =
  match
    Scanf.sscanf line "entry id=%d seed=%x phase=%s tape=%s cov=%s%!"
      (fun id seed phase tape cov -> (id, seed, phase, tape, cov))
  with
  | id, seed, phase, tape, cov ->
    (match tape_of_field tape, Coverage.of_string cov with
     | Some e_tape, Some e_cov ->
       let e = { e_id = id; e_seed = seed; e_phase = phase; e_tape; e_cov } in
       if String.equal (entry_to_line e) line then Some e else None
     | _ -> None)
  | exception _ -> None

(* Rebuilds corpus state from entries (in admission order): the
   accumulated bitmap and next id are derived, never stored. *)
let of_entries entries =
  let acc =
    List.fold_left
      (fun acc e -> Coverage.union acc e.e_cov)
      Coverage.empty entries
  in
  let next_id = List.fold_left (fun m e -> max m (e.e_id + 1)) 0 entries in
  { entries; acc; next_id }

let to_lines c =
  (magic :: List.map entry_to_line c.entries) @ [ "end" ]

let of_lines lines : t option =
  match lines with
  | m :: rest when String.equal m magic ->
    (* entry lines, then "end" as the last line *)
    let rec go acc = function
      | [ "end" ] -> Some (of_entries (List.rev acc))
      | line :: rest ->
        Option.bind (entry_of_line line) (fun e -> go (e :: acc) rest)
      | [] -> None
    in
    go [] rest
  | _ -> None

let save ~dir c =
  Harness.Jsonio.mkdir dir;
  let path = Filename.concat dir corpus_file in
  Harness.Jsonio.write_lines ~path (to_lines c);
  path

(* [None] on a missing or unparseable file: a fresh corpus is always a
   correct recovery, exactly like the campaign checkpoint. *)
let load ~dir : t option =
  Option.bind
    (Harness.Jsonio.read_lines ~path:(Filename.concat dir corpus_file))
    of_lines

let render fmt c =
  Format.fprintf fmt "corpus: %d entries, " (size c);
  Coverage.render fmt c.acc;
  Format.fprintf fmt "@.";
  List.iter
    (fun e ->
       Format.fprintf fmt "  #%d seed=0x%x %s (%d draws, %d bits)@." e.e_id
         e.e_seed e.e_phase (Array.length e.e_tape)
         (Coverage.cardinal e.e_cov))
    c.entries
