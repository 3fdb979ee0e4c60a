(* Evaluation harness for Table II: run every case's bad and good version
   under every sanitizer, with each tool's evaluated subset reproduced:

   - CECSan and ASan run all cases (the dummy-server framework feeds the
     external-input variants);
   - PACMem excludes the socket-input variants (evaluated on 11531 of
     15752 in its paper);
   - CryptSan and HWASan exclude all external-input variants (5364);
   - SoftBound/CETS loses every case its prototype cannot compile
     ([Sanitizer.Spec.Unsupported], e.g. anything with wchar_t).

   Detection = the sanitizer produced a report on the bad version.  A
   crash without a report (segfault, allocator abort) does NOT count --
   which is exactly how HWASan scores 0% on invalid frees. *)

open Case

type verdict =
  | Detected
  | Missed          (* ran to completion or crashed without a report *)
  | Excluded        (* outside the tool's evaluated subset *)

type case_result = {
  case : t;
  verdict : verdict;
  good_fp : bool;   (* the good version produced a (false) report *)
}

type tool_results = {
  tool : string;
  results : case_result list;
  evaluated : int;
}

let excluded_by tool (c : t) =
  match tool with
  | "PACMem" -> needs_socket c.flow
  | "CryptSan" | "HWASan" -> needs_socket c.flow || needs_fgets c.flow
  | _ -> false

let run_one ?backend (san : Sanitizer.Spec.t) (c : t) : case_result =
  if excluded_by san.Sanitizer.Spec.name c then
    { case = c; verdict = Excluded; good_fp = false }
  else
    match
      let bad =
        Sanitizer.Driver.run san ~lines:c.lines ~packets:c.packets
          ~budget:50_000_000 ?backend c.bad_src
      in
      let good =
        Sanitizer.Driver.run san ~lines:c.lines ~packets:c.packets
          ~budget:50_000_000 ?backend c.good_src
      in
      (bad, good)
    with
    | bad, good ->
      let verdict =
        if Vm.Machine.outcome_is_bug bad.Sanitizer.Driver.outcome then
          Detected
        else Missed
      in
      let good_fp = Vm.Machine.outcome_is_bug good.Sanitizer.Driver.outcome in
      { case = c; verdict; good_fp }
    | exception Sanitizer.Spec.Unsupported _ ->
      { case = c; verdict = Excluded; good_fp = false }

(* [map] lets the harness substitute a parallel map (Harness.Pool) for
   the case loop; cases are independent and results keep submission
   order, so the default List.map and any order-preserving parallel map
   produce identical tables. *)
let run_tool ?(map = List.map) ?backend (san : Sanitizer.Spec.t)
    (cases : t list) : tool_results =
  let results = map (run_one ?backend san) cases in
  let evaluated =
    List.length (List.filter (fun r -> r.verdict <> Excluded) results)
  in
  { tool = san.Sanitizer.Spec.name; results; evaluated }

(* Detection rate (percent) for one CWE, over the tool's subset. *)
let rate (tr : tool_results) (cwe : cwe) : float option =
  let of_cwe =
    List.filter
      (fun r -> r.case.cwe = cwe && r.verdict <> Excluded)
      tr.results
  in
  match of_cwe with
  | [] -> None
  | _ ->
    let detected =
      List.length (List.filter (fun r -> r.verdict = Detected) of_cwe)
    in
    Some (100.0 *. float_of_int detected /. float_of_int (List.length of_cwe))

let false_positives (tr : tool_results) : int =
  List.length
    (List.filter (fun r -> r.good_fp && r.verdict <> Excluded) tr.results)

(* The sanitizer lineup of Table II. *)
let lineup () : Sanitizer.Spec.t list =
  [
    Cecsan.sanitizer ();
    Baselines.Pacmem.sanitizer ();
    Baselines.Cryptsan.sanitizer ();
    Baselines.Hwasan.sanitizer ();
    Baselines.Asan.sanitizer ();
    Baselines.Softbound_cets.sanitizer ();
  ]
