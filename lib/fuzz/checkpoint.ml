(* Fuzz.Checkpoint: the campaign state record and its schema-v1 line
   codec (documented in DESIGN.md s.13).

     cecsan-campaign-checkpoint v1
     seed <hex>
     n <int>
     shard_size <int>
     tools <csv|->
     faults <csv|->
     shards_done <int>
     resumed_shards <int>
     retries <int>
     guided mutate_only=<0|1> gen=<int> mut=<int> gen_adm=<int> mut_adm=<int>
     bitmap <Coverage.to_string>
     covrow shard=<int> phase=<s> bits=<int> sites=<int> corpus=<int>
     ...
     corpus <Corpus.entry_to_line>
     ...
     row index=<int> seed=<hex> plan=<cls:far:write:g16|-> failures=<csv|->
     ...
     quarantine task=<int> seed=<hex> attempts=<int> class=<s> phase=<s> detail=<%S>
     ...
     snapshot <Telemetry.Snapshot.to_json line>
     end

   The guided block (guided/bitmap/covrow/corpus lines) appears only
   for a guided schedule; a blind checkpoint has none of it. *)

let sp = Printf.sprintf

type row = {
  index : int;
  seed : int;
  plan : Gen.plan option;
  failures : string list;
}

type cov_row = {
  cr_shard : int;
  cr_phase : string;
  cr_bits : int;
  cr_sites : int;
  cr_corpus : int;
}

type schedule = Blind | Alternate | Mutate_only

type t = {
  campaign_seed : int;
  n : int;
  shard_size : int;
  tool_names : string list;
  faults : string list;
  schedule : schedule;
  shards_done : int;
  resumed_shards : int;
  retries : int;
  rows : row list;
  quarantine : Harness.Supervise.entry list;
  snapshot : Telemetry.Snapshot.t;
  coverage : Coverage.t;
  corpus : Corpus.t;
  cov_rows : cov_row list;
  gen_programs : int;
  mut_programs : int;
  gen_admitted : int;
  mut_admitted : int;
}

let file = "campaign.v1.ckpt"
let magic = "cecsan-campaign-checkpoint v1"

(* overflow-free ceil (n / shard_size) *)
let total_shards t = if t.n <= 0 then 0 else ((t.n - 1) / t.shard_size) + 1

let csv_or_dash = function [] -> "-" | xs -> String.concat "," xs
let csv_of_dash = function "-" -> [] | s -> String.split_on_char ',' s

let plan_to_field = function
  | None -> "-"
  | Some (p : Gen.plan) ->
    sp "%s:%d:%d:%d" (Gen.class_name p.Gen.cls)
      (Bool.to_int p.Gen.far) (Bool.to_int p.Gen.write)
      (Bool.to_int p.Gen.granule16)

let plan_of_field = function
  | "-" -> Some None
  | s ->
    (match String.split_on_char ':' s with
     | [ cls; far; write; g16 ] ->
       (match Gen.class_of_name cls, far, write, g16 with
        | Some cls, ("0" | "1"), ("0" | "1"), ("0" | "1") ->
          Some (Some { Gen.cls; far = String.equal far "1";
                       write = String.equal write "1";
                       granule16 = String.equal g16 "1" })
        | _ -> None)
     | _ -> None)

let row_fields r =
  sp "index=%d seed=%x plan=%s failures=%s" r.index r.seed
    (plan_to_field r.plan) (csv_or_dash r.failures)

let to_lines t =
  [ magic;
    sp "seed %x" t.campaign_seed;
    sp "n %d" t.n;
    sp "shard_size %d" t.shard_size;
    sp "tools %s" (csv_or_dash t.tool_names);
    sp "faults %s" (csv_or_dash t.faults);
    sp "shards_done %d" t.shards_done;
    sp "resumed_shards %d" t.resumed_shards;
    sp "retries %d" t.retries ]
  @ (match t.schedule with
     | Blind -> []
     | Alternate | Mutate_only ->
       sp "guided mutate_only=%d gen=%d mut=%d gen_adm=%d mut_adm=%d"
         (Bool.to_int (t.schedule = Mutate_only)) t.gen_programs
         t.mut_programs t.gen_admitted t.mut_admitted
       :: ("bitmap " ^ Coverage.to_string t.coverage)
       :: List.map
         (fun c ->
            sp "covrow shard=%d phase=%s bits=%d sites=%d corpus=%d"
              c.cr_shard c.cr_phase c.cr_bits c.cr_sites c.cr_corpus)
         t.cov_rows
       @ List.map (fun e -> "corpus " ^ Corpus.entry_to_line e)
         (Corpus.entries t.corpus))
  @ List.map (fun r -> "row " ^ row_fields r) t.rows
  @ List.map (fun e -> "quarantine " ^ Harness.Supervise.entry_to_line e)
    t.quarantine
  @ [ "snapshot " ^ Telemetry.Snapshot.to_json t.snapshot; "end" ]

(* Row indices and quarantine task ids, merged, must enumerate
   [0, upto) exactly once each, with each list in order and every seed
   the one the campaign derives for its index. *)
let tasks_consistent t =
  let upto =
    if t.shards_done >= total_shards t then t.n
    else t.shards_done * t.shard_size
  in
  let derived i s = s = Tape.mix t.campaign_seed i in
  let rec go k rows quarantine =
    match rows, quarantine with
    | r :: rows', _ when r.index = k && derived k r.seed ->
      go (k + 1) rows' quarantine
    | _, (e : Harness.Supervise.entry) :: quarantine'
      when e.q_task = k && derived k e.q_seed ->
      go (k + 1) rows quarantine'
    | [], [] -> k = upto
    | _ -> false
  in
  go 0 t.rows t.quarantine

let consistent t =
  t.n >= 0 && t.shard_size >= 1 && t.shards_done >= 0
  && t.shards_done <= total_shards t
  && t.resumed_shards >= 0 && t.retries >= 0
  && tasks_consistent t
  &&
  match t.schedule with
  | Blind -> t.cov_rows = [] && Corpus.size t.corpus = 0
  | Alternate | Mutate_only ->
    t.gen_programs + t.mut_programs = List.length t.rows
    && t.gen_admitted + t.mut_admitted = Corpus.size t.corpus
    && Coverage.equal t.coverage (Corpus.accumulated t.corpus)
    && List.length t.cov_rows = t.shards_done
    && List.filteri (fun i c -> c.cr_shard <> i) t.cov_rows = []

let of_lines lines =
  let exception Bad in
  let scan line fmt k = try Scanf.sscanf line fmt k with _ -> raise Bad in
  let some = function Some v -> v | None -> raise Bad in
  let once r v = if Option.is_some !r then raise Bad else r := Some v in
  match lines with
  | m :: seed_l :: n_l :: ss_l :: tools_l :: faults_l :: sd_l :: rs_l :: rt_l
    :: body
    when String.equal m magic ->
    (try
       let int l fmt = scan l fmt Fun.id in
       let rows = ref [] and quarantine = ref [] in
       let cov_rows = ref [] and entries = ref [] in
       let guided = ref None and bitmap = ref None and snapshot = ref None in
       let rec go = function
         | [ "end" ] -> ()
         | line :: rest ->
           let k = some (String.index_opt line ' ') in
           let arg = String.sub line (k + 1) (String.length line - k - 1) in
           (match String.sub line 0 k with
            | "row" ->
              rows :=
                scan arg "index=%d seed=%x plan=%s failures=%s%!"
                  (fun index seed plan failures ->
                     { index; seed; plan = some (plan_of_field plan);
                       failures = csv_of_dash failures })
                :: !rows
            | "quarantine" ->
              quarantine := some (Harness.Supervise.entry_of_line arg)
                            :: !quarantine
            | "covrow" ->
              cov_rows :=
                scan arg "shard=%d phase=%s bits=%d sites=%d corpus=%d%!"
                  (fun cr_shard cr_phase cr_bits cr_sites cr_corpus ->
                     { cr_shard; cr_phase; cr_bits; cr_sites; cr_corpus })
                :: !cov_rows
            | "corpus" ->
              entries := some (Corpus.entry_of_line arg) :: !entries
            | "guided" ->
              once guided
                (scan arg
                   "mutate_only=%d gen=%d mut=%d gen_adm=%d mut_adm=%d%!"
                   (fun m g mu ga ma ->
                      let schedule =
                        match m with
                        | 0 -> Alternate
                        | 1 -> Mutate_only
                        | _ -> raise Bad
                      in
                      (schedule, g, mu, ga, ma)))
            | "bitmap" -> once bitmap (some (Coverage.of_string arg))
            | "snapshot" ->
              once snapshot (some (Telemetry.Snapshot.of_json arg))
            | _ -> raise Bad);
           go rest
         | [] -> raise Bad
       in
       go body;
       let schedule, gen_programs, mut_programs, gen_admitted, mut_admitted =
         match !guided, !bitmap with
         | Some g, Some _ -> g
         | None, None -> (Blind, 0, 0, 0, 0)
         | _ -> raise Bad
       in
       let t =
         { campaign_seed = int seed_l "seed %x%!";
           n = int n_l "n %d%!";
           shard_size = int ss_l "shard_size %d%!";
           tool_names = csv_of_dash (scan tools_l "tools %s%!" Fun.id);
           faults = csv_of_dash (scan faults_l "faults %s%!" Fun.id);
           schedule;
           shards_done = int sd_l "shards_done %d%!";
           resumed_shards = int rs_l "resumed_shards %d%!";
           retries = int rt_l "retries %d%!";
           rows = List.rev !rows;
           quarantine = List.rev !quarantine;
           snapshot = some !snapshot;
           coverage = Option.value !bitmap ~default:Coverage.empty;
           corpus = Corpus.of_entries (List.rev !entries);
           cov_rows = List.rev !cov_rows;
           gen_programs; mut_programs; gen_admitted; mut_admitted }
       in
       (* a consistent state, spelled exactly as [to_lines] spells it *)
       if consistent t && to_lines t = lines then Some t else None
     with Bad -> None)
  | _ -> None
