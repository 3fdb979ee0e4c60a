(* cecsan_fuzz: differential fuzzing campaigns for the simulated stack.

   Generate seeded MiniC programs (half clean, half with one planted
   bug), run each uninstrumented and under CECSan (Halt/Recover, opt
   on/off) plus selected baselines, and cross-check every verdict
   against DESIGN.md section 3's capability matrix.  Failures are
   shrunk to standalone repros.

     dune exec bin/cecsan_fuzz.exe -- -n 500
     dune exec bin/cecsan_fuzz.exe -- -n 500 --seed 0xBEEF -j 4
     dune exec bin/cecsan_fuzz.exe -- --smoke -j 2
     dune exec bin/cecsan_fuzz.exe -- -n 200 --tools asan,hwasan
     dune exec bin/cecsan_fuzz.exe -- --write-corpus --corpus-dir test/corpus
     dune exec bin/cecsan_fuzz.exe -- -n 200 --guided --checkpoint /tmp/cov
     dune exec bin/cecsan_fuzz.exe -- --min-corpus --corpus-dir test/corpus
*)

open Cmdliner

let n_programs =
  Arg.(value & opt Harness.Cli.pos_int 500
       & info [ "n" ] ~docv:"N" ~doc:"Number of programs to generate.")

let smoke =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"Quick CI subset: 120 programs, CECSan only.")

let tools =
  let keys = Baselines.Tools.(keys baselines) in
  Arg.(value & opt (list (Harness.Cli.one_of keys)) []
       & info [ "tools" ] ~docv:"NAMES"
           ~doc:("Comma-separated baselines to cross-check in addition to \
                  CECSan: " ^ String.concat ", " keys ^ "."))

let max_shrink =
  Arg.(value & opt Harness.Cli.nonneg_int 5
       & info [ "max-shrink" ] ~docv:"K"
           ~doc:"Shrink at most K failing cases (shrinking is \
                 sequential).")

let repro_dir =
  Arg.(value & opt (some string) None
       & info [ "repro-dir" ] ~docv:"DIR"
           ~doc:"Write each shrunk failure as a standalone .mc repro \
                 into DIR.")

let write_corpus =
  Arg.(value & flag
       & info [ "write-corpus" ]
           ~doc:"Instead of a campaign, regenerate the regression corpus \
                 (shrunk bug-injected programs CECSan detects) into \
                 $(b,--corpus-dir).")

let corpus_dir =
  Arg.(value & opt string "test/corpus"
       & info [ "corpus-dir" ] ~docv:"DIR"
           ~doc:"Target directory for $(b,--write-corpus).")

let corpus_count =
  Arg.(value & opt Harness.Cli.pos_int 10
       & info [ "corpus-count" ] ~docv:"N"
           ~doc:"Corpus entries to write under $(b,--write-corpus).")

let guided =
  Arg.(value & flag
       & info [ "guided" ]
           ~doc:"Coverage-guided campaign: shards alternate seeded \
                 generation and corpus-tape mutation, admitting \
                 coverage-novel tapes to a deterministic corpus kept in \
                 $(b,--checkpoint) DIR.  Corpus, bitmap and ledgers are \
                 byte-identical at any -j, including after \
                 kill-and-resume.")

let mutate_only =
  Arg.(value & flag
       & info [ "mutate-only" ]
           ~doc:"Implies $(b,--guided): after the first corpus \
                 admission, every shard mutates corpus tapes (no fresh \
                 generation).")

let min_corpus =
  Arg.(value & flag
       & info [ "min-corpus" ]
           ~doc:"Instead of a campaign, check that the .mc corpus in \
                 $(b,--corpus-dir) is set-cover minimal (every entry's \
                 bitmap, rebuilt from its tape header, survives \
                 $(b,Corpus.minimize)).  Exit 0 if minimal, 1 if not.")

let faults =
  Arg.(value & opt (list Harness.Cli.fault_spec) []
       & info [ "faults" ] ~docv:"SPECS"
           ~doc:"Comma-separated fault specs injected into every \
                 program's runs: oom:N, table:N, tagflip:N, crash:N \
                 (task dies after N allocations), fuel:N (N-step \
                 pipeline budget).  Dead tasks are retried, then \
                 quarantined.")

let checkpoint =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"DIR"
           ~doc:"Keep an atomic campaign checkpoint in DIR (rewritten \
                 after every shard) and write the final \
                 mismatch/quarantine ledgers there.")

let resume =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Restore the $(b,--checkpoint) DIR state and continue \
                 from the first unfinished shard.  The final ledgers \
                 are byte-identical to an uninterrupted run.")

let shard_size =
  Arg.(value & opt Harness.Cli.pos_int 256
       & info [ "shard-size" ] ~docv:"N"
           ~doc:"Programs per checkpointed shard.")

let max_retries =
  Arg.(value & opt Harness.Cli.nonneg_int 1
       & info [ "max-retries" ] ~docv:"K"
           ~doc:"Deterministic retry budget before a dead task is \
                 quarantined.")

let run_cmd n seed jobs smoke tool_names max_shrink repro_dir write_corpus
    corpus_dir corpus_count guided mutate_only min_corpus telemetry_json
    fault_specs checkpoint resume shard_size max_retries backend =
  (* The backend is threaded explicitly into every campaign entry point. *)
  if min_corpus then begin
    match Fuzz.Campaign.check_corpus_minimal ~dir:corpus_dir ?backend () with
    | Ok [] ->
      Fmt.pr "corpus %s: minimal@." corpus_dir;
      exit 0
    | Ok redundant ->
      Fmt.epr "corpus %s: NOT minimal; redundant entries:@." corpus_dir;
      List.iter (fun f -> Fmt.epr "  %s@." f) redundant;
      exit 1
    | Error msg -> Fmt.epr "--min-corpus: %s@." msg; exit 2
  end;
  if write_corpus then begin
    let paths =
      Fuzz.Campaign.write_corpus ~dir:corpus_dir ~seed ~count:corpus_count
        ?backend ()
    in
    Fmt.pr "Corpus: seed=0x%x, %d entries under %s@." seed
      (List.length paths) corpus_dir;
    List.iter (fun p -> Fmt.pr "  %s@." p) paths;
    exit 0
  end;
  if resume && checkpoint = None then begin
    Fmt.epr "--resume requires --checkpoint DIR@.";
    exit 2
  end;
  let policy =
    { Harness.Supervise.default_policy with max_retries }
  in
  let n = if smoke then 120 else n in
  let schedule =
    if mutate_only then Fuzz.Campaign.Mutate_only
    else if guided then Fuzz.Campaign.Alternate
    else Fuzz.Campaign.Blind
  in
  let summary =
    Harness.Pool.with_jobs jobs (fun pool ->
        Fuzz.Campaign.run ?pool ~tool_names ~max_shrink
          ~faults:fault_specs ~policy ?checkpoint ~resume ~shard_size
          ?backend ~schedule ~seed ~n ())
  in
  Fuzz.Campaign.render Format.std_formatter ~jobs summary;
  (match checkpoint with
   | Some dir ->
     let mismatch, quarantine = Fuzz.Campaign.write_ledgers ~dir summary in
     Fmt.pr "ledgers written: %s %s@." mismatch quarantine
   | None -> ());
  Option.iter
    (fun path ->
       Harness.Cli.write_snapshot ~path (Fuzz.Campaign.telemetry summary);
       Fmt.pr "telemetry snapshot written: %s@." path)
    telemetry_json;
  (match repro_dir with
   | Some dir when summary.Fuzz.Campaign.shrunk <> [] ->
     let paths = Fuzz.Campaign.write_repros ~dir summary in
     List.iter (fun p -> Fmt.pr "repro written: %s@." p) paths
   | _ -> ());
  exit (if Fuzz.Campaign.passed summary then 0 else 1)

let cmd =
  let doc = "differential fuzzing of the CECSan reproduction: seeded \
             program generation, cross-sanitizer oracle, tape shrinking" in
  Cmd.v
    (Cmd.info "cecsan_fuzz" ~version:"1.0" ~doc)
    Term.(const run_cmd $ n_programs
          $ Harness.Cli.seed
              ~doc:"Campaign seed; every per-program seed derives from it, \
                    so a campaign is reproducible from the report header."
          $ Harness.Cli.jobs
              ~doc:"Run the campaign on $(docv) domains.  Verdicts are \
                    bit-for-bit identical at any $(docv)."
          $ smoke $ tools $ max_shrink $ repro_dir $ write_corpus
          $ corpus_dir $ corpus_count $ guided $ mutate_only $ min_corpus
          $ Harness.Cli.telemetry_json
              ~doc:"Write the campaign's merged CECSan telemetry snapshot \
                    to $(docv) as deterministic JSON (identical at any \
                    -j)."
          $ faults $ checkpoint $ resume $ shard_size $ max_retries
          $ Harness.Cli.backend
              ~doc:"Execution backend for every run in the campaign: \
                    $(b,interp) (default) or $(b,jit).  Verdicts and \
                    ledgers are bit-for-bit identical on both.")

let () = Cmd.eval cmd |> exit
