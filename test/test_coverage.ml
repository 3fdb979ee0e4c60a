(* Tests of the coverage-guided fuzzing layer (DESIGN.md section 17):
   bitmap packing and determinism, mutation-schedule determinism,
   corpus admission/minimization properties, and the pinned
   guided-beats-blind golden inequality. *)

let cov = Alcotest.testable Fuzz.Coverage.render Fuzz.Coverage.equal

(* --- bitmap packing -------------------------------------------------------- *)

let packing_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"key packs and unpacks" ~count:500
         QCheck.(triple (int_bound (Fuzz.Coverage.max_legs - 1))
                   (int_bound 5000) (int_bound 3))
         (fun (leg, site, ki) ->
            let kind = List.nth Fuzz.Coverage.all_kinds ki in
            let k = Fuzz.Coverage.key ~leg ~site kind in
            Fuzz.Coverage.key_leg k = leg
            && Fuzz.Coverage.key_site k = site
            && Fuzz.Coverage.key_kind k = kind));
    Alcotest.test_case "to_string/of_string round-trips" `Quick (fun () ->
        let c =
          Fuzz.Coverage.of_keys
            [ Fuzz.Coverage.key ~leg:0 ~site:3 Fuzz.Coverage.Executed;
              Fuzz.Coverage.key ~leg:2 ~site:0 Fuzz.Coverage.Instrumented;
              Fuzz.Coverage.key ~leg:1 ~site:17 Fuzz.Coverage.Covered ]
        in
        (match Fuzz.Coverage.of_string (Fuzz.Coverage.to_string c) with
         | Some c' -> Alcotest.check cov "round trip" c c'
         | None -> Alcotest.fail "of_string failed");
        Alcotest.(check string) "empty is dash" "-"
          (Fuzz.Coverage.to_string Fuzz.Coverage.empty);
        Alcotest.(check bool) "empty parses" true
          (Fuzz.Coverage.of_string "-" = Some Fuzz.Coverage.empty));
    Alcotest.test_case "instrumented-only sites carry a bit" `Quick
      (fun () ->
         (* all-zero rows (sites_full's contribution) must be visible in
            the bitmap, else "new site instrumented" is not novelty *)
         let rows =
           [ { Telemetry.Snapshot.s_site = 0; s_executed = 1; s_elided = 0;
               s_covered = 0 };
             { Telemetry.Snapshot.s_site = 5; s_executed = 0; s_elided = 0;
               s_covered = 0 } ]
         in
         let c = Fuzz.Coverage.of_rows ~leg:0 rows in
         Alcotest.(check int) "bits" 3 (Fuzz.Coverage.cardinal c);
         Alcotest.(check int) "sites" 2 (Fuzz.Coverage.sites c));
  ]

(* --- accumulated-bitmap determinism over a guided shard -------------------- *)

let guided ?pool ?stop_after_shards ?(resume = false) ?checkpoint ~seed ~n
    () =
  Fuzz.Campaign.run ?pool ?checkpoint ~resume ?stop_after_shards
    ~schedule:Alternate ~shard_size:10 ~seed ~n ()

let determinism_tests =
  [
    Alcotest.test_case
      "accumulated bitmap and corpus byte-identical at -j1 and -j4" `Quick
      (fun () ->
         let s1 = guided ~seed:0xC0FFEE ~n:200 () in
         let s4 =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               guided ~pool:p ~seed:0xC0FFEE ~n:200 ())
         in
         Alcotest.(check string) "bitmap"
           (Fuzz.Coverage.to_string s1.Fuzz.Campaign.state.coverage)
           (Fuzz.Coverage.to_string s4.Fuzz.Campaign.state.coverage);
         Alcotest.(check (list string)) "corpus lines"
           (Fuzz.Corpus.to_lines s1.Fuzz.Campaign.state.corpus)
           (Fuzz.Corpus.to_lines s4.Fuzz.Campaign.state.corpus);
         Alcotest.(check (list string)) "mismatch ledger"
           (Fuzz.Campaign.mismatch_ledger_lines s1)
           (Fuzz.Campaign.mismatch_ledger_lines s4));
    Alcotest.test_case "mutation schedule is a pure function of its seed"
      `Quick
      (fun () ->
         (* the same (seed, corpus) produces the same (op, tape) stream
            no matter how often or in what interleaving it is derived *)
         let base = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
         let partner = [| 2; 7; 1; 8; 2; 8 |] in
         let schedule seed =
           List.init 64 (fun i ->
               let rng =
                 Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix seed i)
               in
               Fuzz.Mutate.mutate ~rng ~partner base)
         in
         let ops l = List.map (fun (op, _) -> Fuzz.Mutate.op_name op) l in
         let tapes l = List.map snd l in
         let a = schedule 0xFEED and b = schedule 0xFEED in
         Alcotest.(check (list string)) "ops" (ops a) (ops b);
         Alcotest.(check (list (array int))) "tapes" (tapes a) (tapes b);
         (* and a different seed gives a different schedule *)
         let c = schedule 0xBEEF in
         Alcotest.(check bool) "seed-dependent" true
           (tapes a <> tapes c));
  ]

(* --- corpus admission and minimization ------------------------------------- *)

let key l s k = Fuzz.Coverage.key ~leg:l ~site:s k

let corpus_tests =
  [
    Alcotest.test_case "admission strictly grows the bitmap" `Quick
      (fun () ->
         let covs =
           [ Fuzz.Coverage.of_keys [ key 0 0 Fuzz.Coverage.Executed ];
             Fuzz.Coverage.of_keys [ key 0 0 Fuzz.Coverage.Executed ];
             (* duplicate: rejected *)
             Fuzz.Coverage.of_keys
               [ key 0 0 Fuzz.Coverage.Executed;
                 key 0 1 Fuzz.Coverage.Elided ];
             Fuzz.Coverage.empty (* nothing novel: rejected *) ]
         in
         let _, admits =
           List.fold_left
             (fun (c, acc) cv ->
                let before =
                  Fuzz.Coverage.cardinal (Fuzz.Corpus.accumulated c)
                in
                let c', admitted =
                  Fuzz.Corpus.admit c ~seed:0 ~phase:"gen" ~tape:[| 1 |]
                    ~cov:cv
                in
                let after =
                  Fuzz.Coverage.cardinal (Fuzz.Corpus.accumulated c')
                in
                Alcotest.(check bool) "admitted iff bitmap grew" admitted
                  (after > before);
                (c', acc @ [ admitted ]))
             (Fuzz.Corpus.empty, [])
             covs
         in
         Alcotest.(check (list bool)) "admission pattern"
           [ true; false; true; false ] admits);
    Alcotest.test_case
      "minimize is idempotent and coverage-preserving on a guided corpus"
      `Quick
      (fun () ->
         let s = guided ~seed:0x5EED ~n:100 () in
         let c = s.Fuzz.Campaign.state.corpus in
         Alcotest.(check bool) "corpus is nonempty" true
           (Fuzz.Corpus.size c > 0);
         let m = Fuzz.Corpus.minimize c in
         let m2 = Fuzz.Corpus.minimize m in
         Alcotest.(check (list string)) "fixed point"
           (Fuzz.Corpus.to_lines m) (Fuzz.Corpus.to_lines m2);
         Alcotest.check cov "same accumulated bitmap"
           (Fuzz.Corpus.accumulated c) (Fuzz.Corpus.accumulated m);
         Alcotest.(check bool) "no larger" true
           (Fuzz.Corpus.size m <= Fuzz.Corpus.size c));
    Alcotest.test_case "entry_of_line rejects trailing bytes" `Quick
      (fun () ->
         let e =
           { Fuzz.Corpus.e_id = 3; e_seed = 0xBEEF; e_phase = "gen";
             e_tape = [| 1; 2; 3 |];
             e_cov =
               Fuzz.Coverage.of_keys
                 [ Fuzz.Coverage.key ~leg:0 ~site:3 Fuzz.Coverage.Executed ] }
         in
         let line = Fuzz.Corpus.entry_to_line e in
         Alcotest.(check bool) "own line" true
           (Fuzz.Corpus.entry_of_line line = Some e);
         List.iter
           (fun suffix ->
              Alcotest.(check bool) (Printf.sprintf "suffix %S" suffix) true
                (Fuzz.Corpus.entry_of_line (line ^ suffix) = None))
           [ " GARBAGE"; " "; "\n"; "\t1"; "x"; "\"" ]);
    Alcotest.test_case "readers accept only what their writers print" `Quick
      (fun () ->
         let rejects what r =
           Alcotest.(check bool) (what ^ " rejected") true (r = None)
         in
         List.iter
           (fun s -> rejects ("tape " ^ s) (Fuzz.Tape.of_string s))
           [ "02"; "+2"; "1_2"; "0x10"; "1, 2"; " 1" ];
         Alcotest.(check bool) "tape 1,2" true
           (Fuzz.Tape.of_string "1,2" = Some [| 1; 2 |]);
         Alcotest.(check bool) "empty tape" true
           (Fuzz.Tape.of_string "" = Some [||]);
         List.iter
           (fun s -> rejects ("bitmap " ^ s) (Fuzz.Coverage.of_string s))
           [ "02"; "+2"; "1_2"; "0x10"; "3,3"; "5,3" ];
         Alcotest.(check bool) "bitmap 3,5" true
           (Option.map Fuzz.Coverage.to_string (Fuzz.Coverage.of_string "3,5")
            = Some "3,5");
         let e =
           { Fuzz.Corpus.e_id = 12; e_seed = 0xFF; e_phase = "gen";
             e_tape = [| 1; 2 |]; e_cov = Fuzz.Coverage.of_keys [ 3; 5 ] }
         in
         let line = Fuzz.Corpus.entry_to_line e in
         Alcotest.(check string) "the writer's line"
           "entry id=12 seed=ff phase=gen tape=1,2 cov=3,5" line;
         List.iter
           (fun (field, spelled) ->
              let mutant =
                Str.replace_first (Str.regexp_string field) spelled line
              in
              rejects mutant (Fuzz.Corpus.entry_of_line mutant))
           [ ("id=12", "id=012"); ("id=12", "id=+12"); ("id=12", "id=1_2");
             ("seed=ff", "seed=00ff"); ("seed=ff", "seed=+ff");
             ("tape=1,2", "tape=01,2"); ("cov=3,5", "cov=3,3,5") ]);
    Alcotest.test_case "corpus file round-trips byte for byte" `Quick
      (fun () ->
         let s = guided ~seed:0x5EED ~n:60 () in
         let lines = Fuzz.Corpus.to_lines s.Fuzz.Campaign.state.corpus in
         match Fuzz.Corpus.of_lines lines with
         | Some c' ->
           Alcotest.(check (list string)) "round trip" lines
             (Fuzz.Corpus.to_lines c')
         | None -> Alcotest.fail "of_lines failed");
  ]

(* --- the golden inequality ------------------------------------------------- *)

(* Pinned over the standard seed: the guided campaign reaches strictly
   more distinct check sites (and strictly more bitmap bits) than the
   blind campaign at the same 100-program budget.  Deterministic, so a
   regression here means the feedback loop stopped feeding back. *)
let golden_tests =
  [
    Alcotest.test_case "guided beats blind at the same budget" `Quick
      (fun () ->
         let s = guided ~seed:0x5EED ~n:100 () in
         let blind =
           Fuzz.Campaign.blind_coverage ~seed:0x5EED ~n:100 ()
         in
         let gs = Fuzz.Coverage.sites s.Fuzz.Campaign.state.coverage in
         let bs = Fuzz.Coverage.sites blind in
         if gs <= bs then
           Alcotest.failf "guided reached %d sites, blind %d" gs bs;
         let gb = Fuzz.Coverage.cardinal s.Fuzz.Campaign.state.coverage in
         let bb = Fuzz.Coverage.cardinal blind in
         if gb <= bb then
           Alcotest.failf "guided reached %d bits, blind %d" gb bb);
  ]

(* --- the CLI's schedule flags ----------------------------------------------- *)

let cli_tests =
  [
    Alcotest.test_case "--mutate-only alone runs the Mutate_only schedule"
      `Quick
      (fun () ->
         let exe =
           Filename.concat (Filename.dirname Sys.executable_name)
             "../bin/cecsan_fuzz.exe"
         in
         let ic =
           Unix.open_process_args_in exe
             [| exe; "-n"; "20"; "--shard-size"; "10"; "--mutate-only" |]
         in
         let out = In_channel.input_all ic in
         if Unix.close_process_in ic <> Unix.WEXITED 0 then
           Alcotest.fail "cecsan_fuzz --mutate-only failed";
         let s =
           Fuzz.Campaign.run ~schedule:Mutate_only ~seed:0x5EED ~n:20
             ~shard_size:10 ()
         in
         Alcotest.(check bool) "mutation shards ran" true
           (s.Fuzz.Campaign.state.mut_programs > 0);
         Alcotest.(check string) "report"
           (Format.asprintf "%a"
              (fun fmt -> Fuzz.Campaign.render fmt ~jobs:1) s)
           out);
  ]

let () =
  Alcotest.run "coverage"
    [
      "packing", packing_tests;
      "determinism", determinism_tests;
      "corpus", corpus_tests;
      "golden", golden_tests;
      "cli", cli_tests;
    ]
