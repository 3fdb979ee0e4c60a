(* Metric rows, the statistics behind them, and the two output forms:
   one human/compare-readable line per metric ("name value unit n=N")
   and the single JSON result line the run ends with. *)

type row = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (* samples the value was computed from *)
}

let row ?(n = 1) name unit_ value = { name; value; unit_; n }

let ms_of_ns ns = float_of_int ns /. 1e6

(* Nearest-rank percentiles on integer nanoseconds, as Harness.Stats
   defines them, reported in milliseconds. *)
let percentile_ms ~q (ns : int list) =
  ms_of_ns (Harness.Stats.percentile_int ~q ns)

let sum = List.fold_left ( + ) 0
let fsum = List.fold_left ( +. ) 0.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let geomean (xs : float list) =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> 0.
  | ys -> exp (fsum (List.map log ys) /. float_of_int (List.length ys))

(* Python's statistics.median. *)
let median (xs : float list) =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4) (the default 'exclusive'
   method): the first and third quartiles.  A single value is its own
   quartiles. *)
let quartiles (xs : float list) =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* VmHWM of a process, in kB; 0 where /proc is unavailable. *)
let peak_rss_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> 0
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
        | _ -> None)
    |> Option.value ~default:0

(* --- output ----------------------------------------------------------------- *)

let print_row (r : row) =
  Printf.printf "%s %.17g %s n=%d\n" r.name r.value r.unit_ r.n

(* JSON numbers cannot be nan or infinite; a share over an empty
   denominator is reported as 0 by the callers, so this only guards. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed (rows : row list) =
  let metrics =
    List.map
      (fun r ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string r.name)
           (json_number r.value) (json_string r.unit_))
      rows
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)
