(* [cecsan_bench compare OLD NEW]: each file holds the standard output
   of any number of [cecsan_bench run] invocations.  For every
   (workload, metric) pair the two sides' medians and quartiles are set
   side by side and judged against the metric's bound in
   BENCHMARK.json:

   - unresolved: the old side's spread (quartile distance over median)
     is wider than the bound, so its own runs cannot tell a change from
     noise;
   - REGRESSION: the new median is worse than the old by more than the
     bound;
   - ok: otherwise.

   Metrics without a bound are shown with their medians; a metric that
   reads the same on every run of a side (a cost-model count) is marked
   "changed" when the two sides' values differ. *)

(* (workload key, metric) -> values, in file order; the key carries
   "+trace" for traced runs, whose rows are not comparable with
   untraced ones. *)
let read path : ((string * string) * float list) list =
  let tbl = Hashtbl.create 64 and order = ref [] and key = ref "?" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "#" :: "cecsan_bench" :: "run" :: fields ->
        let field k =
          List.find_map
            (fun f ->
               match String.index_opt f '=' with
               | Some i when String.equal (String.sub f 0 i) k ->
                 Some (String.sub f (i + 1) (String.length f - i - 1))
               | _ -> None)
            fields
        in
        key :=
          Option.value ~default:"?" (field "workload")
          ^ if field "trace" = Some "1" then "+trace" else ""
      | [ name; value; _unit; n ] when String.starts_with ~prefix:"n=" n ->
        (match float_of_string_opt value with
         | Some v ->
           let k = (!key, name) in
           (match Hashtbl.find_opt tbl k with
            | Some vs -> Hashtbl.replace tbl k (v :: vs)
            | None ->
              order := k :: !order;
              Hashtbl.replace tbl k [ v ])
         | None -> ())
      | _ -> ());
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

type side = { med : float; q1 : float; q3 : float; runs : int; constant : bool }

let side vs =
  let q1, q3 = Ledger.quartiles vs in
  { med = Ledger.median vs; q1; q3; runs = List.length vs;
    constant = List.for_all (fun v -> v = List.hd vs) vs }

let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med

let verdict (m : Jsonr.metric option) old_ new_ =
  match m with
  | Some { Jsonr.m_bound = Some bound; m_lower_better; _ } ->
    let change =
      if old_.med = 0. then 0. else (new_.med -. old_.med) /. Float.abs old_.med
    in
    let worse = if m_lower_better then change else -.change in
    if spread old_ > bound then "unresolved"
    else if worse > bound then "REGRESSION"
    else "ok"
  | _ ->
    if old_.constant && new_.constant && old_.med <> new_.med then "changed"
    else "-"

let fmt_side s = Printf.sprintf "%.4g [%.4g, %.4g] x%d" s.med s.q1 s.q3 s.runs

(* Prints the table; returns the number of regressions. *)
let run ~(spec : Jsonr.spec) ~old_path ~new_path =
  let old_ = read old_path and new_ = read new_path in
  let keys =
    List.map fst old_
    @ List.filter (fun k -> not (List.mem_assoc k old_)) (List.map fst new_)
  in
  let lookup name =
    List.find_opt (fun (m : Jsonr.metric) -> String.equal m.Jsonr.m_name name)
      (spec.Jsonr.end_to_end @ spec.Jsonr.per_layer)
  in
  Printf.printf "%-20s %-34s %-34s %-34s %8s %6s  %s\n" "workload" "metric"
    "old median [q1, q3] xruns" "new median [q1, q3] xruns" "change" "bound"
    "verdict";
  let regressions = ref 0 in
  List.iter
    (fun ((wl, name) as k) ->
       let m = lookup name in
       let bound =
         match m with
         | Some { Jsonr.m_bound = Some b; _ } -> Printf.sprintf "%.3g" b
         | _ -> "-"
       in
       match List.assoc_opt k old_, List.assoc_opt k new_ with
       | Some o, Some n ->
         let o = side o and n = side n in
         let v = verdict m o n in
         if String.equal v "REGRESSION" then incr regressions;
         Printf.printf "%-20s %-34s %-34s %-34s %+7.2f%% %6s  %s\n" wl name
           (fmt_side o) (fmt_side n)
           (if o.med = 0. then 0. else 100. *. (n.med -. o.med) /. Float.abs o.med)
           bound v
       | _ ->
         if bound <> "-" then incr regressions;
         Printf.printf "%-20s %-34s %-34s %-34s %8s %6s  missing\n" wl name
           (if List.mem_assoc k old_ then "present" else "-")
           (if List.mem_assoc k new_ then "present" else "-") "" bound)
    keys;
  !regressions
