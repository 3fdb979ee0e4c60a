(* Tests of Tir.Verify, the static certification pass: the unmutated
   pipeline must verify, ~10 seeded unsound mutations of the
   instrumented/optimized IR must each be rejected, every sanitizer must
   verify across 200 generated programs with coverage preserved over the
   optimization, and the [Cfg.make_preheader] stale-cfg regression. *)

open Tir.Ir

let sp = Printf.sprintf

(* A program exercising every coverage feature: a store loop and a load
   loop over a heap array (grouped endpoint checks), an external call
   taking a pointer (strip obligation), and a free (hazard). *)
let src =
  "extern int ext_sum(char *p, int n);\n\
   int main() {\n\
  \  int sum = 0;\n\
  \  char *h = (char*)malloc(16);\n\
  \  for (int i = 0; i < 16; i++) {\n\
  \    h[i] = 65;\n\
  \  }\n\
  \  for (int i = 0; i < 16; i++) {\n\
  \    sum = sum + (int)h[i];\n\
  \  }\n\
  \  sum = sum + ext_sum(h, 16);\n\
  \  free(h);\n\
  \  printf(\"S:%d\\n\", sum & 65535);\n\
  \  return sum & 63;\n\
   }\n"

(* Instrument + optimize by hand (not through [Driver.build]) so the
   mutations below apply after the gate would have run. *)
let build () =
  let san = Cecsan.sanitizer () in
  let md = Sanitizer.Driver.compile_cached ~optimize:true src in
  san.Sanitizer.Spec.instrument md;
  san.Sanitizer.Spec.optimize md;
  (Option.get san.Sanitizer.Spec.verify, md)

let main_fn md =
  match find_func md "main" with
  | Some f -> f
  | None -> Alcotest.fail "no main"

(* Replace the first instruction satisfying [pred] with [repl i];
   returns whether a replacement happened (a mutation that finds
   nothing to mutate is a broken test, not a pass). *)
let replace_first (f : func) pred repl =
  let hit = ref false in
  Array.iter
    (fun b ->
       if not !hit then
         b.b_instrs <-
           List.concat_map
             (fun i ->
                if (not !hit) && pred i then begin
                  hit := true;
                  repl i
                end
                else [ i ])
             b.b_instrs)
    f.f_blocks;
  !hit

let is_check name i =
  match i with
  | Iintrin { name = n; _ } -> String.equal n name
  | _ -> false

let errors_of spec md = (Tir.Verify.check ~spec md).Tir.Verify.r_errors

let assert_rejected name mutate =
  let spec, md = build () in
  if not (mutate spec md) then
    Alcotest.failf "%s: mutation found nothing to mutate" name;
  match errors_of spec md with
  | [] -> Alcotest.failf "%s: verifier accepted the mutated module" name
  | _ :: _ -> ()

let test_baseline () =
  let spec, md = build () in
  let r = Tir.Verify.check ~spec md in
  Alcotest.(check (list string))
    "no errors"
    []
    (List.map Tir.Verify.error_to_string r.Tir.Verify.r_errors);
  Alcotest.(check bool) "has obligations" true (r.Tir.Verify.r_accesses > 0);
  Alcotest.(check int) "all covered" r.Tir.Verify.r_accesses
    r.Tir.Verify.r_covered

(* --- the mutation-kill battery -------------------------------------------- *)

let mutations =
  [
    (* coverage unsoundness: each must fail the dataflow proof *)
    ( "dropping a check loses coverage",
      fun (spec : Tir.Analysis.spec) md ->
        replace_first (main_fn md)
          (is_check spec.Tir.Analysis.check_store)
          (fun _ -> []) );
    ( "dropping the far grouped endpoint loses coverage",
      fun (spec : Tir.Analysis.spec) md ->
        (* skip the first store check, delete the second: one endpoint
           of a grouped pair is not a range proof *)
        let seen = ref 0 in
        replace_first (main_fn md)
          (fun i ->
             if is_check spec.Tir.Analysis.check_store i then begin
               incr seen;
               !seen = 2
             end
             else false)
          (fun _ -> []) );
    ( "widening a grouped endpoint breaks the range proof",
      fun _spec md ->
        (* the optimizer pinned offsets 0 and 15; moving the far
           endpoint to 23 leaves offset 15 unproven *)
        replace_first (main_fn md)
          (function
            | Igep { idx = Some (Imm 15); _ } -> true
            | _ -> false)
          (function
            | Igep g -> [ Igep { g with idx = Some (Imm 23) } ]
            | _ -> assert false) );
    ( "shrinking a check's size breaks coverage",
      fun (spec : Tir.Analysis.spec) md ->
        replace_first (main_fn md)
          (is_check spec.Tir.Analysis.check_store)
          (function
            | Iintrin ({ args = [ p; Imm _ ]; _ } as c) ->
              [ Iintrin { c with args = [ p; Imm 0 ] } ]
            | i -> [ i ]) );
    ( "a hazard intrinsic before an access kills its facts",
      fun _spec md ->
        let f = main_fn md in
        let hazard =
          Iintrin
            { dst = None; name = "__cecsan_free"; args = [];
              site = fresh_site md }
        in
        replace_first f
          (function
            | Istore { safe = false; _ } -> true
            | _ -> false)
          (fun i -> [ hazard; i ]) );
    ( "an unstripped pointer reaches an external call",
      fun (spec : Tir.Analysis.spec) md ->
        let strip =
          List.find_map
            (function name, Tir.Analysis.Strip -> Some name | _ -> None)
            spec.Tir.Analysis.intrinsics.declared
          |> Option.get
        in
        replace_first (main_fn md) (is_check strip)
          (function
            | Iintrin { dst = Some d; args = [ p ]; _ } ->
              [ Imov { dst = d; src = p } ]
            | i -> [ i ]) );
    (* well-formedness: each must fail the lint *)
    ( "branch to a nonexistent block",
      fun _spec md ->
        let f = main_fn md in
        f.f_blocks.(0).b_term <- Tbr 999;
        true );
    ( "operand register out of range",
      fun _spec md ->
        let f = main_fn md in
        let b = f.f_blocks.(0) in
        b.b_instrs <-
          b.b_instrs @ [ Imov { dst = 0; src = Reg (f.f_nregs + 7) } ];
        true );
    ( "call to an unresolved callee",
      fun _spec md ->
        let f = main_fn md in
        let b = f.f_blocks.(0) in
        b.b_instrs <-
          b.b_instrs @ [ Icall { dst = None; callee = "no_such_fn";
                                 args = [] } ];
        true );
    ( "stack slot out of range",
      fun _spec md ->
        let f = main_fn md in
        let b = f.f_blocks.(0) in
        b.b_instrs <- b.b_instrs @ [ Islot { dst = 0; slot = 99 } ];
        true );
    ( "access size not a power of two",
      fun _spec md ->
        replace_first (main_fn md)
          (function
            | Iload { safe = false; _ } -> true
            | _ -> false)
          (function
            | Iload l -> [ Iload { l with size = 3 } ]
            | i -> [ i ]) );
  ]

let mutation_tests =
  List.map
    (fun (name, mutate) ->
       Alcotest.test_case name `Quick (fun () -> assert_rejected name mutate))
    mutations

(* --- definite assignment: exact messages ---------------------------------- *)

let wf_strings md =
  List.map Tir.Verify.error_to_string (Tir.Verify.well_formed md)

(* Splice a diamond in front of main's entry terminator: b0 branches to
   a fresh block that defines a fresh register and to a fresh join
   block, which uses it.  The join is reached on a path that skips the
   definition. *)
let test_one_branch_def () =
  let _spec, md = build () in
  let f = main_fn md in
  Alcotest.(check (list string)) "clean before" [] (wf_strings md);
  let nb = Array.length f.f_blocks and r = f.f_nregs in
  f.f_nregs <- r + 2;
  let b0 = f.f_blocks.(0) in
  let def_blk =
    { b_id = nb; b_instrs = [ Imov { dst = r; src = Imm 5 } ];
      b_term = Tbr (nb + 1) }
  in
  let join_blk =
    { b_id = nb + 1; b_instrs = [ Imov { dst = r + 1; src = Reg r } ];
      b_term = b0.b_term }
  in
  b0.b_term <- Tcbr (Imm 1, nb, nb + 1);
  f.f_blocks <- Array.append f.f_blocks [| def_blk; join_blk |];
  Alcotest.(check (list string)) "exact rejection"
    [ sp "main.b%d: use of r%d not assigned on every path" (nb + 1) r ]
    (wf_strings md)

(* A negative and an over-range register, each both defined and used:
   the lint reports every bad operand, and definite assignment tracks
   the out-of-range definitions instead of raising. *)
let test_out_of_range_regs () =
  let _spec, md = build () in
  let f = main_fn md in
  let n = f.f_nregs in
  let b0 = f.f_blocks.(0) in
  b0.b_instrs <-
    Imov { dst = -3; src = Reg (n + 5) }
    :: Ibin { op = Add; dst = n + 9; a = Reg (-3); b = Reg (n + 9) }
    :: b0.b_instrs;
  let range r = sp "main.b0: register r%d out of range (nregs=%d)" r n in
  Alcotest.(check (list string)) "lint + definite assignment"
    [ range (n + 5); range (-3); range (-3); range (n + 9); range (n + 9);
      sp "main.b0: use of r%d not assigned on every path" (n + 9) ]
    (wf_strings md)

let defassign_tests =
  [
    Alcotest.test_case "a definition on one branch only is rejected" `Quick
      test_one_branch_def;
    Alcotest.test_case "out-of-range registers are reported, never raise"
      `Quick test_out_of_range_regs;
  ]

(* --- every sanitizer verifies on generated programs ----------------------- *)

let all_sanitizers () =
  [
    Cecsan.sanitizer ();
    Baselines.Asan.sanitizer ();
    Baselines.Asan_minus.sanitizer ();
    Baselines.Hwasan.sanitizer ();
    Baselines.Softbound_cets.sanitizer ();
    Baselines.Pacmem.sanitizer ();
    Baselines.Cryptsan.sanitizer ();
  ]

let seed_gen = QCheck.(map abs int)

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "all sanitizers verify on generated programs, coverage \
            preserved across optimization"
         ~count:200 seed_gen
         (fun seed ->
            let p =
              Fuzz.Gen.generate ~inject:(seed land 1 = 1)
                (Fuzz.Tape.fresh ~seed)
            in
            List.for_all
              (fun optimize ->
                 List.for_all
                   (fun (san : Sanitizer.Spec.t) ->
                      match
                        let md =
                          Sanitizer.Driver.compile_cached ~optimize
                            p.Fuzz.Gen.src
                        in
                        let spec = san.Sanitizer.Spec.verify in
                        san.Sanitizer.Spec.instrument md;
                        let pre = Tir.Verify.check ?spec md in
                        san.Sanitizer.Spec.optimize md;
                        let post = Tir.Verify.check ?spec md in
                        (pre, post)
                      with
                      | exception Sanitizer.Spec.Unsupported _ -> true
                      | pre, post ->
                        let clean (r : Tir.Verify.report) tag =
                          match r.Tir.Verify.r_errors with
                          | [] -> true
                          | e :: _ ->
                            QCheck.Test.fail_reportf
                              "seed %d, %s, O%d, %s: %s@.%s" seed
                              san.Sanitizer.Spec.name
                              (if optimize then 2 else 0)
                              tag
                              (Tir.Verify.error_to_string e)
                              p.Fuzz.Gen.src
                        in
                        clean pre "preopt" && clean post "postopt"
                        &&
                        (if
                           pre.Tir.Verify.r_covered
                           <> post.Tir.Verify.r_covered
                         then
                           QCheck.Test.fail_reportf
                             "seed %d, %s, O%d: coverage %d preopt vs %d \
                              postopt"
                             seed san.Sanitizer.Spec.name
                             (if optimize then 2 else 0)
                             pre.Tir.Verify.r_covered
                             post.Tir.Verify.r_covered
                         else true))
                   (all_sanitizers ()))
              [ true; false ]));
  ]

(* --- undeclared intrinsics are hazards ----------------------------------- *)

(* An intrinsic the spec gives no role may change metadata, so each of
   Checkopt, Verify and the purity closure must treat it as a hazard. *)
let undeclared = "__cecsan_undeclared"

let twice_src =
  "int helper(int x) { return x + 1; }\n\
   int main() { int *p = (int*)malloc(8); p[0] = 1; int a = p[0];\n\
  \  free(p); return helper(a); }\n"

(* [main] of the instrumented program, with its load check and load
   repeated verbatim after [between]; returns the module and the
   destinations of the two checks. *)
let twice_checked between =
  let md = Sanitizer.Driver.compile_cached ~optimize:true twice_src in
  (Cecsan.sanitizer ()).Sanitizer.Spec.instrument md;
  let f = main_fn md in
  let dsts = ref None in
  Array.iter
    (fun b ->
       let rec go = function
         | (Iintrin { dst = Some d; name; _ } as c)
           :: (Iload ({ addr = Reg a; _ } as l) as i) :: rest
           when !dsts = None && a = d
                && String.equal name Cecsan.Opt.spec.check_load ->
           let d2 = fresh_reg f in
           dsts := Some (d, d2);
           let c2 =
             match c with
             | Iintrin c ->
               Iintrin { c with dst = Some d2; site = fresh_site md }
             | _ -> assert false
           in
           c :: i :: between md
           @ [ c2; Iload { l with dst = fresh_reg f; addr = Reg d2 } ]
           @ rest
         | i :: rest -> i :: go rest
         | [] -> []
       in
       b.b_instrs <- go b.b_instrs)
    f.f_blocks;
  match !dsts with
  | Some dsts -> (md, f, dsts)
  | None -> Alcotest.fail "no checked load in main"

let nothing _ = []

let an_undeclared md =
  [ Iintrin { dst = None; name = undeclared; args = []; site = fresh_site md } ]

let count_load_checks f =
  Array.fold_left
    (fun n b ->
       List.fold_left
         (fun n -> function
            | Iintrin { name; _ }
              when String.equal name Cecsan.Opt.spec.check_load -> n + 1
            | _ -> n)
         n b.b_instrs)
    0 f.f_blocks

let checkopt_keeps_both () =
  let removed between =
    let md, f, _ = twice_checked between in
    let n = Sanitizer.Checkopt.redundant Cecsan.Opt.spec
        ~pure:(Cecsan.Opt.purity md) f in
    (n, count_load_checks f)
  in
  Alcotest.(check (pair int int)) "control: the repeat is redundant" (1, 1)
    (removed nothing);
  Alcotest.(check (pair int int)) "undeclared between: both kept" (0, 2)
    (removed an_undeclared)

(* The second check replaced by a copy of the first's result, as the
   redundant pass would do if it ignored the intrinsic between them. *)
let verify_refuses_stale_fact () =
  let errors between =
    let md, f, (d, d2) = twice_checked between in
    ignore
      (replace_first f
         (function Iintrin { dst = Some x; _ } -> x = d2 | _ -> false)
         (fun _ -> [ Imov { dst = d2; src = Reg d } ]));
    List.map Tir.Verify.error_to_string (errors_of Cecsan.Opt.spec md)
  in
  Alcotest.(check (list string)) "control: the copy is covered" []
    (errors nothing);
  match errors an_undeclared with
  | [ e ] ->
    Alcotest.(check bool) ("uncovered load: " ^ e) true
      (Str.string_match (Str.regexp ".*has no covering __cecsan_check_load")
         e 0)
  | es ->
    Alcotest.failf "expected one uncovered load, got [%s]"
      (String.concat "; " es)

let undeclared_impure () =
  let md, _, _ = twice_checked nothing in
  Alcotest.(check bool) "control: helper is pure" true
    (Tir.Analysis.pure_callees md Cecsan.Opt.spec "helper");
  let helper = Option.get (find_func md "helper") in
  let b0 = helper.f_blocks.(0) in
  b0.b_instrs <- an_undeclared md @ b0.b_instrs;
  Alcotest.(check bool) "undeclared intrinsic: helper is impure" false
    (Tir.Analysis.pure_callees md Cecsan.Opt.spec "helper")

let undeclared_tests =
  [ Alcotest.test_case "checkopt keeps both checks around it" `Quick
      checkopt_keeps_both;
    Alcotest.test_case "verify kills the first check's fact" `Quick
      verify_refuses_stale_fact;
    Alcotest.test_case "pure_callees counts it impure" `Quick
      undeclared_impure ]

(* --- make_preheader stale-cfg regression ---------------------------------- *)

(* Two self-loops reachable from one shared entry block: creating the
   first preheader appends a block, so the cfg the caller held is stale
   for the second loop.  [make_preheader] returns the rebuilt cfg; this
   drives both creations through the returned values and checks the
   final shape. *)
let test_preheader_shared_entry () =
  let blk id term = { b_id = id; b_instrs = []; b_term = term } in
  let f =
    {
      f_name = "f";
      f_params = [];
      f_nregs = 1;
      f_slots = [];
      f_blocks =
        [|
          blk 0 (Tcbr (Reg 0, 1, 2));
          blk 1 (Tcbr (Reg 0, 1, 2)); (* loop 1: self-loop, exits into 2 *)
          blk 2 (Tcbr (Reg 0, 2, 3)); (* loop 2: self-loop *)
          blk 3 (Tret (Some (Imm 0)));
        |];
      f_external = false;
      f_ret_void = false;
      f_sig_ptrs = [];
      f_ret_ptr = false;
    }
  in
  let cfg = Tir.Cfg.build f in
  let idom = Tir.Cfg.dominators cfg in
  let loops = Tir.Cfg.loops f cfg idom in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let l1, l2 =
    match loops with [ a; b ] -> (a, b) | _ -> assert false
  in
  Alcotest.(check int) "headers" 1 l1.Tir.Cfg.header;
  Alcotest.(check int) "headers" 2 l2.Tir.Cfg.header;
  let ph1, cfg = Tir.Cfg.make_preheader f cfg l1 in
  (* threading the returned cfg into the second creation is the point:
     the original cfg has no arrays for the appended block *)
  let ph2, cfg = Tir.Cfg.make_preheader f cfg l2 in
  Alcotest.(check bool) "distinct preheaders" true (ph1 <> ph2);
  Alcotest.(check int) "six blocks" 6 (Array.length f.f_blocks);
  let term i = f.f_blocks.(i).b_term in
  Alcotest.(check bool) "ph1 -> header 1" true (term ph1 = Tbr 1);
  Alcotest.(check bool) "ph2 -> header 2" true (term ph2 = Tbr 2);
  Alcotest.(check bool) "entry retargeted" true
    (term 0 = Tcbr (Reg 0, ph1, ph2));
  Alcotest.(check bool) "loop 1 exit retargeted" true
    (term 1 = Tcbr (Reg 0, 1, ph2));
  (* the returned cfg matches a fresh rebuild of the mutated function *)
  let fresh = Tir.Cfg.build f in
  Alcotest.(check bool) "returned cfg is current" true
    (cfg.Tir.Cfg.preds = fresh.Tir.Cfg.preds
     && cfg.Tir.Cfg.succs = fresh.Tir.Cfg.succs);
  (* each header now has the preheader as its only non-latch pred *)
  List.iter
    (fun (h, ph) ->
       let outside =
         List.filter (fun p -> p <> h) fresh.Tir.Cfg.preds.(h)
       in
       Alcotest.(check (list int)) (sp "preds of header %d" h) [ ph ]
         outside)
    [ (1, ph1); (2, ph2) ]

let preheader_tests =
  [
    Alcotest.test_case "make_preheader: two loops, shared entry block"
      `Quick test_preheader_shared_entry;
  ]

let () =
  Alcotest.run "verify"
    [
      ("baseline", [ Alcotest.test_case "pipeline verifies" `Quick
                       test_baseline ]);
      ("mutation-kill", mutation_tests);
      ("defassign", defassign_tests);
      ("generated-programs", property_tests);
      ("preheader", preheader_tests);
      ("undeclared-hazard", undeclared_tests);
    ]
