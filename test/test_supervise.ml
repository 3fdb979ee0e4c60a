(* The supervised execution layer (DESIGN.md section 13): exception
   classification, deterministic retry/quarantine, fuel watchdogs,
   ledger serialization, and checkpoint/resume equivalence. *)

let mismatch_pair = Alcotest.(pair (list string) (list string))

let ledgers (s : Fuzz.Campaign.summary) =
  ( Fuzz.Campaign.mismatch_ledger_lines s,
    Fuzz.Campaign.quarantine_ledger_lines s )

(* --- Supervise.run ------------------------------------------------------- *)

let supervise_tests =
  [
    Alcotest.test_case "classify maps known exception classes" `Quick
      (fun () ->
         let check exn cls phase =
           Alcotest.(check (pair string string))
             cls (cls, phase) (Harness.Supervise.classify exn)
         in
         check (Vm.Fault.Injected_crash { after = 3 }) "crash" "run";
         check
           (Tir.Fuel.Exhausted { phase = "verify"; budget = 9 })
           "fuel" "verify";
         check Stack_overflow "stack-overflow" "run";
         check Out_of_memory "out-of-memory" "run";
         check (Failure "x") "failure" "run";
         check Exit "exn" "run");
    Alcotest.test_case "first success needs no retries" `Quick (fun () ->
        let o =
          Harness.Supervise.run ~task:7 ~seed:0xAB (fun ~attempt ->
              attempt * 10)
        in
        Alcotest.(check int) "retries" 0 o.Harness.Supervise.retries;
        match o.Harness.Supervise.result with
        | Ok v -> Alcotest.(check int) "value" 0 v
        | Error _ -> Alcotest.fail "expected Ok");
    Alcotest.test_case "transient failure is retried deterministically"
      `Quick
      (fun () ->
         let o =
           Harness.Supervise.run
             ~policy:{ Harness.Supervise.default_policy with max_retries = 2 }
             ~task:1 ~seed:0xCD
             (fun ~attempt -> if attempt < 2 then failwith "flaky" else 42)
         in
         Alcotest.(check int) "retries" 2 o.Harness.Supervise.retries;
         match o.Harness.Supervise.result with
         | Ok v -> Alcotest.(check int) "value" 42 v
         | Error _ -> Alcotest.fail "expected Ok after retries");
    Alcotest.test_case "exhausted retries quarantine with full entry"
      `Quick
      (fun () ->
         let o =
           Harness.Supervise.run
             ~policy:{ Harness.Supervise.default_policy with max_retries = 1 }
             ~task:5 ~seed:0xEF
             (fun ~attempt:_ ->
                raise (Vm.Fault.Injected_crash { after = 11 }))
         in
         Alcotest.(check int) "retries" 1 o.Harness.Supervise.retries;
         match o.Harness.Supervise.result with
         | Ok _ -> Alcotest.fail "expected quarantine"
         | Error e ->
           Alcotest.(check int) "task" 5 e.Harness.Supervise.q_task;
           Alcotest.(check int) "seed" 0xEF e.Harness.Supervise.q_seed;
           Alcotest.(check string) "class" "crash" e.Harness.Supervise.q_class;
           Alcotest.(check int) "attempts" 2 e.Harness.Supervise.q_attempts);
    Alcotest.test_case "entry_to_line round-trips through entry_of_line"
      `Quick
      (fun () ->
         let e =
           { Harness.Supervise.q_task = 12; q_seed = 0xBEEF;
             q_class = "fuel"; q_phase = "verify"; q_attempts = 3;
             q_detail = "Exhausted {phase=\"verify\"; budget=600}" }
         in
         match
           Harness.Supervise.entry_of_line
             (Harness.Supervise.entry_to_line e)
         with
         | Some e' ->
           Alcotest.(check bool) "round trip" true (e = e')
         | None -> Alcotest.fail "entry_of_line rejected its own line");
    Alcotest.test_case "entry_of_line rejects malformed lines" `Quick
      (fun () ->
         Alcotest.(check bool) "garbage" true
           (Harness.Supervise.entry_of_line "not a ledger line" = None));
    Alcotest.test_case "entry_of_line rejects trailing bytes" `Quick
      (fun () ->
         let line =
           Harness.Supervise.entry_to_line
             { Harness.Supervise.q_task = 1; q_seed = 0x2A; q_class = "crash";
               q_phase = "run"; q_attempts = 2; q_detail = "boom" }
         in
         List.iter
           (fun suffix ->
              Alcotest.(check bool) (Printf.sprintf "suffix %S" suffix) true
                (Harness.Supervise.entry_of_line (line ^ suffix) = None))
           [ " GARBAGE"; " "; "\n"; "\t1"; "x"; "\"" ]);
    Alcotest.test_case "entry_of_line accepts only what entry_to_line prints"
      `Quick
      (fun () ->
         let line =
           Harness.Supervise.entry_to_line
             { Harness.Supervise.q_task = 12; q_seed = 0xFF; q_class = "crash";
               q_phase = "run"; q_attempts = 2; q_detail = "A" }
         in
         Alcotest.(check string) "the writer's line"
           "task=12 seed=ff attempts=2 class=crash phase=run detail=\"A\""
           line;
         List.iter
           (fun (field, spelled) ->
              let mutant =
                Str.replace_first (Str.regexp_string field) spelled line
              in
              Alcotest.(check bool) (mutant ^ " rejected") true
                (Harness.Supervise.entry_of_line mutant = None))
           [ ("task=12", "task=012"); ("task=12", "task=+12");
             ("task=12", "task=1_2"); ("seed=ff", "seed=00ff");
             ("attempts=2", "attempts=02"); ("\"A\"", "\"\\065\"") ]);
  ]

(* --- fuel watchdogs ------------------------------------------------------ *)

let fuel_tests =
  [
    Alcotest.test_case "fuel exhaustion is deterministic" `Quick (fun () ->
        let src = "int main() { int s = 0; for (int i = 0; i < 40; i++) \
                   s += i; return s & 255; }" in
        let exhausted_at budget =
          match
            Sanitizer.Driver.compile
              ~fuel:(Tir.Fuel.make ~phase:"compile" ~budget) src
          with
          | (_ : Tir.Ir.modul) -> None
          | exception Tir.Fuel.Exhausted { phase; budget = b } ->
            Some (phase, b)
        in
        (* a tight budget trips, a huge one does not, and reruns agree *)
        Alcotest.(check bool) "tiny budget trips" true
          (exhausted_at 1 <> None);
        Alcotest.(check bool) "huge budget passes" true
          (exhausted_at 1_000_000 = None);
        Alcotest.(check bool) "deterministic" true
          (exhausted_at 1 = exhausted_at 1));
    Alcotest.test_case "compile_cached burns fuel on cache hits too"
      `Quick
      (fun () ->
         let src = "int main() { return 7; }" in
         Sanitizer.Driver.clear_compile_cache ();
         (* miss, then hit: both must burn the same amount *)
         let burn () =
           let fuel = Tir.Fuel.make ~phase:"compile" ~budget:1_000_000 in
           ignore
             (Sanitizer.Driver.compile_cached ~optimize:true ~fuel src);
           1_000_000 - Tir.Fuel.remaining fuel
         in
         let miss = burn () in
         let hit = burn () in
         Alcotest.(check int) "cache-state independent burn" miss hit;
         Alcotest.(check bool) "burn is positive" true (miss > 0));
    Alcotest.test_case "fault parse round-trips crash and fuel specs"
      `Quick
      (fun () ->
         List.iter
           (fun s ->
              match Vm.Fault.parse s with
              | Ok spec ->
                Alcotest.(check string) "round trip" s
                  (Vm.Fault.spec_to_string spec)
              | Error m -> Alcotest.fail ("parse " ^ s ^ ": " ^ m))
           [ "crash:25"; "fuel:2500"; "oom:40"; "table:8"; "tagflip:97" ]);
    Alcotest.test_case "snapshot JSON round-trips via of_json" `Quick
      (fun () ->
         let s =
           Fuzz.Campaign.run ~seed:0x5EED ~n:12 ~max_shrink:0
             ~faults:[ Vm.Fault.Crash 1 ] ()
         in
         let json = Telemetry.Snapshot.to_json (Fuzz.Campaign.telemetry s) in
         match Telemetry.Snapshot.of_json json with
         | Some snap ->
           Alcotest.(check string) "round trip" json
             (Telemetry.Snapshot.to_json snap)
         | None -> Alcotest.fail "of_json rejected to_json output");
  ]

(* --- supervised campaigns ------------------------------------------------ *)

let campaign_tests =
  [
    Alcotest.test_case "crash faults quarantine instead of aborting"
      `Quick
      (fun () ->
         let s =
           Fuzz.Campaign.run ~seed:0x5EED ~n:40 ~max_shrink:0
             ~faults:[ Vm.Fault.Crash 1 ] ()
         in
         Alcotest.(check bool) "some tasks quarantined" true
           (s.Fuzz.Campaign.state.quarantine <> []);
         Alcotest.(check bool) "retries happened" true
           (s.Fuzz.Campaign.state.retries > 0);
         Alcotest.(check int) "every program accounted for"
           s.Fuzz.Campaign.state.n
           (List.length s.Fuzz.Campaign.state.rows
            + List.length s.Fuzz.Campaign.state.quarantine));
    Alcotest.test_case "faulted campaign ledgers identical at -j 1 and -j 4"
      `Quick
      (fun () ->
         let run pool =
           Fuzz.Campaign.run ?pool ~seed:0xFA57 ~n:40 ~max_shrink:0
             ~faults:[ Vm.Fault.Crash 1 ] ()
         in
         let seq = run None in
         let par =
           Harness.Pool.with_pool ~jobs:4 (fun p -> run (Some p))
         in
         Alcotest.check mismatch_pair "ledger lines" (ledgers seq)
           (ledgers par);
         Alcotest.(check int) "retries equal" seq.Fuzz.Campaign.state.retries
           par.Fuzz.Campaign.state.retries);
    Alcotest.test_case "fuel faults quarantine with class fuel" `Quick
      (fun () ->
         let s =
           Fuzz.Campaign.run ~seed:0x5EED ~n:20 ~max_shrink:0
             ~faults:[ Vm.Fault.Fuel 400 ] ()
         in
         Alcotest.(check bool) "fuel-exhausted tasks counted" true
           (List.exists
              (fun (e : Harness.Supervise.entry) ->
                 String.equal e.Harness.Supervise.q_class "fuel")
              s.Fuzz.Campaign.state.quarantine);
         List.iter
           (fun (e : Harness.Supervise.entry) ->
              Alcotest.(check string) "class" "fuel"
                e.Harness.Supervise.q_class)
           s.Fuzz.Campaign.state.quarantine);
  ]

(* --- checkpoint / resume ------------------------------------------------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cecsan_ckpt_%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
    (fun () -> f dir)

let checkpoint_tests =
  [
    Alcotest.test_case "interrupt + resume reproduces the ledgers" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0x5EED and n = 40 in
             let faults = [ Vm.Fault.Crash 1 ] in
             let uninterrupted =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults ()
             in
             (* run one shard, "die", resume from the checkpoint *)
             let partial =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
                 ~checkpoint:dir ~shard_size:16 ~stop_after_shards:1 ()
             in
             Alcotest.(check bool) "partial really is partial" true
               (List.length partial.Fuzz.Campaign.state.rows
                + List.length partial.Fuzz.Campaign.state.quarantine
                < n);
             let resumed =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
                 ~checkpoint:dir ~shard_size:16 ~resume:true ()
             in
             Alcotest.(check bool) "shards were restored" true
               (resumed.Fuzz.Campaign.state.resumed_shards > 0);
             Alcotest.check mismatch_pair "ledger lines"
               (ledgers uninterrupted) (ledgers resumed)));
    Alcotest.test_case "resume at a different -j is byte-identical" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0xFA57 and n = 32 in
             let faults = [ Vm.Fault.Crash 1 ] in
             let uninterrupted =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults ()
             in
             ignore
               (Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
                  ~checkpoint:dir ~shard_size:8 ~stop_after_shards:2 ());
             let resumed =
               Harness.Pool.with_pool ~jobs:4 (fun p ->
                   Fuzz.Campaign.run ~pool:p ~seed ~n ~max_shrink:0
                     ~faults ~checkpoint:dir ~shard_size:8 ~resume:true ())
             in
             Alcotest.check mismatch_pair "ledger lines"
               (ledgers uninterrupted) (ledgers resumed)));
    Alcotest.test_case "config mismatch on resume is rejected" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             ignore
               (Fuzz.Campaign.run ~seed:0x5EED ~n:16 ~max_shrink:0
                  ~checkpoint:dir ~shard_size:8 ~stop_after_shards:1 ());
             match
               Fuzz.Campaign.run ~seed:0xBAD ~n:16 ~max_shrink:0
                 ~checkpoint:dir ~shard_size:8 ~resume:true ()
             with
             | (_ : Fuzz.Campaign.summary) ->
               Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()));
    Alcotest.test_case
      "guided interrupt + resume reproduces corpus, bitmap and ledger"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0x5EED and n = 60 in
             let uninterrupted =
               Fuzz.Campaign.run ~schedule:Alternate ~seed ~n ~shard_size:10 ()
             in
             (* die after two shards, resume at a different -j *)
             ignore
               (Fuzz.Campaign.run ~schedule:Alternate ~seed ~n ~shard_size:10
                  ~checkpoint:dir ~stop_after_shards:2 ());
             let resumed =
               Harness.Pool.with_pool ~jobs:4 (fun p ->
                   Fuzz.Campaign.run ~pool:p ~schedule:Alternate ~seed ~n
                     ~shard_size:10 ~checkpoint:dir ~resume:true ())
             in
             Alcotest.(check bool) "shards were restored" true
               (resumed.Fuzz.Campaign.state.resumed_shards > 0);
             Alcotest.(check string) "accumulated bitmap"
               (Fuzz.Coverage.to_string
                  uninterrupted.Fuzz.Campaign.state.coverage)
               (Fuzz.Coverage.to_string resumed.Fuzz.Campaign.state.coverage);
             Alcotest.(check (list string)) "corpus lines"
               (Fuzz.Corpus.to_lines uninterrupted.Fuzz.Campaign.state.corpus)
               (Fuzz.Corpus.to_lines resumed.Fuzz.Campaign.state.corpus);
             Alcotest.check mismatch_pair "ledger lines"
               (ledgers uninterrupted) (ledgers resumed);
             (* the derived on-disk corpus matches the in-memory one *)
             match Fuzz.Corpus.load ~dir with
             | Some c ->
               Alcotest.(check (list string)) "on-disk corpus"
                 (Fuzz.Corpus.to_lines uninterrupted.Fuzz.Campaign.state.corpus)
                 (Fuzz.Corpus.to_lines c)
             | None -> Alcotest.fail "no corpus file written"));
    Alcotest.test_case "guided flag mismatch on resume is rejected" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             ignore
               (Fuzz.Campaign.run ~schedule:Alternate ~seed:0x5EED ~n:20
                  ~shard_size:10 ~checkpoint:dir ~stop_after_shards:1 ());
             match
               Fuzz.Campaign.run ~seed:0x5EED ~n:20 ~shard_size:10
                 ~checkpoint:dir ~resume:true ()
             with
             | (_ : Fuzz.Campaign.summary) ->
               Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()));
    Alcotest.test_case "resume without a checkpoint file starts fresh"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let s =
               Fuzz.Campaign.run ~seed:0x5EED ~n:8 ~max_shrink:0
                 ~checkpoint:dir ~resume:true ()
             in
             Alcotest.(check int) "no resumed shards" 0
               s.Fuzz.Campaign.state.resumed_shards;
             Alcotest.(check int) "all rows present" 8
               (List.length s.Fuzz.Campaign.state.rows)));
  ]

(* --- checkpoint reader --------------------------------------------------- *)

let report s =
  Format.asprintf "%a" (fun fmt -> Fuzz.Campaign.render fmt ~jobs:1) s

let read_checkpoint dir =
  Option.get
    (Harness.Jsonio.read_lines ~path:(Filename.concat dir Fuzz.Checkpoint.file))

(* The consistency contract of [Checkpoint.of_lines], restated
   independently of its implementation. *)
let checkpoint_invariant (t : Fuzz.Checkpoint.t) =
  let total = if t.n = 0 then 0 else (t.n + t.shard_size - 1) / t.shard_size in
  let rows = List.map (fun (r : Fuzz.Checkpoint.row) -> r.index) t.rows in
  let tasks =
    List.map (fun (e : Harness.Supervise.entry) -> e.q_task) t.quarantine
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  0 <= t.shards_done && t.shards_done <= total
  && t.resumed_shards >= 0 && t.retries >= 0
  && increasing rows && increasing tasks
  && List.sort compare (rows @ tasks)
     = List.init (min t.n (t.shards_done * t.shard_size)) Fun.id
  && (t.schedule = Fuzz.Checkpoint.Blind
      || t.gen_programs + t.mut_programs = List.length t.rows
         && List.length t.cov_rows = t.shards_done)

(* Line-level mutants: flip one bit of a byte, insert a copy of some
   line, delete a line or duplicate one in place, positions drawn from
   a seeded tape.  Lines are re-split afterwards, as a reader would see
   a flipped-in newline. *)
let mutate_lines rng lines =
  let draw = Fuzz.Tape.draw rng in
  let a = Array.of_list lines in
  let n = Array.length a in
  let l = Array.to_list in
  let lines =
    match draw 4 with
    | _ when n = 0 -> lines
    | 0 ->
      let i = draw n in
      let s = Bytes.of_string a.(i) in
      if Bytes.length s > 0 then begin
        let k = draw (Bytes.length s) in
        Bytes.set s k (Char.chr (Char.code (Bytes.get s k) lxor (1 lsl draw 8)))
      end;
      a.(i) <- Bytes.to_string s;
      l a
    | 1 ->
      let i = draw (n + 1) in
      l (Array.sub a 0 i) @ (a.(draw n) :: l (Array.sub a i (n - i)))
    | 2 ->
      let i = draw n in
      l (Array.sub a 0 i) @ l (Array.sub a (i + 1) (n - i - 1))
    | _ ->
      let i = draw n in
      l (Array.sub a 0 (i + 1)) @ l (Array.sub a i (n - i))
  in
  String.split_on_char '\n' (String.concat "\n" lines)

(* Two checkpoints stopped after three of four shards: one with
   quarantined tasks, one guided (with a corpus). *)
let sample_checkpoints dir =
  let run ?faults ?schedule () =
    ignore
      (Fuzz.Campaign.run ~seed:0x5EED ~n:40 ~max_shrink:0 ?faults ?schedule
         ~shard_size:10 ~checkpoint:dir ~stop_after_shards:3 ());
    read_checkpoint dir
  in
  [ run ~faults:[ Vm.Fault.Crash 3; Vm.Fault.Fuel 600 ] ();
    run ~schedule:Fuzz.Campaign.Alternate () ]

(* Feeds [read] 1500 seeded mutants of each input (one to four rounds
   of [mutate_lines] each): it must never raise, and whatever it
   accepts must print back as the mutant, byte for byte, and satisfy
   [ok].  Some mutant must be accepted, or the property tests
   nothing. *)
let mutants_round_trip ~seed ~read ~print ?(ok = fun _ -> true) inputs =
  let rng = Fuzz.Tape.fresh ~seed in
  let accepted = ref 0 in
  List.iter
    (fun input ->
       for _ = 1 to 1500 do
         let m = ref input in
         for _ = 0 to Fuzz.Tape.draw rng 3 do
           m := mutate_lines rng !m
         done;
         let shown () = String.concat "\n" !m in
         match read !m with
         | exception e ->
           Alcotest.failf "reader raised %s on:\n%s" (Printexc.to_string e)
             (shown ())
         | None -> ()
         | Some t ->
           incr accepted;
           if print t <> !m then
             Alcotest.failf "accepted a spelling its writer does not print:\n%s"
               (shown ());
           if not (ok t) then
             Alcotest.failf "inconsistent state accepted:\n%s" (shown ())
       done)
    inputs;
  if !accepted = 0 then Alcotest.fail "no mutant was accepted"

let reader_tests =
  [
    Alcotest.test_case "inconsistent checkpoints resume as a fresh start"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0x5EED and n = 40 and shard_size = 10 in
             let faults = [ Vm.Fault.Crash 3 ] in
             let run ?stop_after_shards ?(resume = false) () =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults ~shard_size
                 ~checkpoint:dir ?stop_after_shards ~resume ()
             in
             let uninterrupted = run () in
             let full = read_checkpoint dir in
             ignore (run ~stop_after_shards:2 ());
             let partial = read_checkpoint dir in
             let replace prefix line =
               List.map (fun l ->
                   if String.starts_with ~prefix l then line else l)
             in
             let mutants =
               [ "shards_done -2",
                 replace "shards_done " "shards_done -2" partial;
                 "row index=5 deleted",
                 List.filter
                   (fun l -> not (String.starts_with ~prefix:"row index=5 " l))
                   partial;
                 "shards_done 2 over four shards of rows",
                 replace "shards_done " "shards_done 2" full ]
             in
             List.iter
               (fun (name, lines) ->
                  Alcotest.(check bool) (name ^ ": rejected") true
                    (Fuzz.Checkpoint.of_lines lines = None);
                  Harness.Jsonio.write_lines
                    ~path:(Filename.concat dir Fuzz.Checkpoint.file) lines;
                  let resumed = run ~resume:true () in
                  Alcotest.(check int) (name ^ ": fresh start") 0
                    resumed.Fuzz.Campaign.state.resumed_shards;
                  Alcotest.check mismatch_pair (name ^ ": ledgers")
                    (ledgers uninterrupted) (ledgers resumed);
                  Alcotest.(check string) (name ^ ": report")
                    (report uninterrupted) (report resumed))
               mutants));
    Alcotest.test_case "checkpoint numbers are read only as printed" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let lines = List.hd (sample_checkpoints dir) in
             Alcotest.(check bool) "the writer's file" true
               (Fuzz.Checkpoint.of_lines lines <> None);
             List.iter
               (fun (line, spelled) ->
                  let mutant =
                    List.map (fun l -> if l = line then spelled else l) lines
                  in
                  Alcotest.(check bool) (spelled ^ " rejected") true
                    (mutant <> lines
                     && Fuzz.Checkpoint.of_lines mutant = None))
               [ ("n 40", "n 040"); ("n 40", "n +40"); ("n 40", "n 4_0");
                 ("shard_size 10", "shard_size 0x0a");
                 ("shards_done 3", "shards_done 03") ]));
    Alcotest.test_case
      "mutated checkpoints never raise; accepted ones are consistent and \
       print back byte for byte"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             mutants_round_trip ~seed:0xC4EC ~read:Fuzz.Checkpoint.of_lines
               ~print:Fuzz.Checkpoint.to_lines ~ok:checkpoint_invariant
               (sample_checkpoints dir)));
    Alcotest.test_case
      "mutated corpus files never raise; accepted ones print back byte for \
       byte"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let guided = List.nth (sample_checkpoints dir) 1 in
             let corpus =
               (Option.get (Fuzz.Checkpoint.of_lines guided)).corpus
             in
             Alcotest.(check bool) "corpus is nonempty" true
               (Fuzz.Corpus.size corpus > 0);
             mutants_round_trip ~seed:0xC0A9 ~read:Fuzz.Corpus.of_lines
               ~print:Fuzz.Corpus.to_lines
               [ Fuzz.Corpus.to_lines corpus ]));
    Alcotest.test_case
      "mutated quarantine lines never raise; accepted ones print back byte \
       for byte"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let prefix = "quarantine " in
             let lines =
               List.filter_map
                 (fun l ->
                    if String.starts_with ~prefix l then
                      Some
                        (String.sub l (String.length prefix)
                           (String.length l - String.length prefix))
                    else None)
                 (List.hd (sample_checkpoints dir))
             in
             Alcotest.(check bool) "quarantined tasks" true (lines <> []);
             let read = function
               | [ line ] -> Harness.Supervise.entry_of_line line
               | _ -> None
             in
             mutants_round_trip ~seed:0x9A7E ~read
               ~print:(fun e -> [ Harness.Supervise.entry_to_line e ])
               (List.map (fun l -> [ l ]) lines)));
  ]

(* --- digest pin ---------------------------------------------------------- *)

(* Everything a campaign emits -- ledgers, the rendered report, the
   snapshot JSON, checkpoint bytes mid-campaign and at the end, the
   guided corpus and fuzzcov artifact, the resilience table -- folded
   into one buffer.  The buffer must be identical at -j 1 and -j 4, and
   its digest must not move when the campaign driver is restructured. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let pin_summary buf (s : Fuzz.Campaign.summary) =
  List.iter (Printf.bprintf buf "mismatch %s\n")
    (Fuzz.Campaign.mismatch_ledger_lines s);
  List.iter (Printf.bprintf buf "quarantine %s\n")
    (Fuzz.Campaign.quarantine_ledger_lines s);
  Buffer.add_string buf (report s);
  Printf.bprintf buf "%s\n"
    (Telemetry.Snapshot.to_json (Fuzz.Campaign.telemetry s))

let pin_checkpoint buf dir =
  Buffer.add_string buf
    (read_file (Filename.concat dir Fuzz.Checkpoint.file))

let pin_buffer pool =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun faults ->
       with_tmp_dir (fun dir ->
           let run ?stop_after_shards ?(resume = false) () =
             Fuzz.Campaign.run ?pool ~seed:0x5EED ~n:48 ~faults
               ~checkpoint:dir ~shard_size:16 ?stop_after_shards ~resume ()
           in
           pin_summary buf (run ~stop_after_shards:1 ());
           pin_checkpoint buf dir;
           pin_summary buf (run ~resume:true ());
           pin_checkpoint buf dir;
           pin_summary buf (run ());
           pin_checkpoint buf dir))
    [ []; [ Vm.Fault.Crash 3; Vm.Fault.Fuel 600 ] ];
  let blind = Fuzz.Campaign.blind_coverage ?pool ~seed:0x5EED ~n:100 () in
  List.iter
    (fun schedule ->
       with_tmp_dir (fun dir ->
           let s =
             Fuzz.Campaign.run ?pool ~schedule ~seed:0x5EED
               ~n:100 ~shard_size:10 ~checkpoint:dir ()
           in
           pin_summary buf s;
           Printf.bprintf buf "%s\n" (Fuzz.Campaign.fuzzcov_json ~blind s);
           List.iter (Printf.bprintf buf "%s\n")
             (Fuzz.Corpus.to_lines s.Fuzz.Campaign.state.corpus);
           pin_checkpoint buf dir))
    [ Fuzz.Campaign.Alternate; Fuzz.Campaign.Mutate_only ];
  Printf.bprintf buf "%s\n"
    (Fuzz.Campaign.resilience_json
       (Fuzz.Campaign.resilience ?pool ~n:80 ~seed:0x5EED ()));
  Buffer.contents buf

let pin_tests =
  [
    Alcotest.test_case "campaign artifacts match the pinned digest" `Quick
      (fun () ->
         let seq = pin_buffer None in
         let par =
           Harness.Pool.with_pool ~jobs:4 (fun p -> pin_buffer (Some p))
         in
         Alcotest.(check bool) "-j 1 and -j 4 identical" true
           (String.equal seq par);
         Alcotest.(check (pair int string)) "digest"
           (223608, "362b90a9a04cc9c16991cd8625631a59")
           (String.length seq, Digest.to_hex (Digest.string seq)));
  ]

let () =
  Alcotest.run "supervise"
    [
      "supervise", supervise_tests;
      "fuel", fuel_tests;
      "campaign", campaign_tests;
      "checkpoint", checkpoint_tests;
      "reader", reader_tests;
      "digest-pin", pin_tests;
    ]
