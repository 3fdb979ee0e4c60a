(* Line-delimited JSON framing for the analysis service.  Values,
   printing and the strict parser are the shared [Json] codec; this
   module is the request/response schema on top of it.  Keys print in
   the order stored, so equal messages are byte-identical -- the
   property the -j1-vs-j4 determinism checks pin. *)

open Json

let to_string = Json.to_string Spaced
let parse = Json.parse

(* --- request / response codecs --------------------------------------------- *)

type op =
  | Analyze of { source : string; sanitizer : string; optimize : bool }
  | Fuzz of { fz_seed : int; inject : bool }
  | Bench of { kernel : string; sanitizer : string }

type request = {
  id : int;
  op : op;
  backend : Vm.Machine.backend option;
}

let backend_name = function
  | Vm.Machine.Interp -> "interp"
  | Vm.Machine.Jit -> "jit"

let backend_of_name = function
  | "interp" -> Some Vm.Machine.Interp
  | "jit" -> Some Vm.Machine.Jit
  | _ -> None

let encode_request (r : request) : Json.t =
  let backend_field =
    match r.backend with
    | None -> []
    | Some b -> [ ("backend", Str (backend_name b)) ]
  in
  let op_fields =
    match r.op with
    | Analyze { source; sanitizer; optimize } ->
      [ ("op", Str "analyze"); ("source", Str source);
        ("sanitizer", Str sanitizer); ("optimize", Bool optimize) ]
    | Fuzz { fz_seed; inject } ->
      [ ("op", Str "fuzz"); ("seed", Int fz_seed); ("inject", Bool inject) ]
    | Bench { kernel; sanitizer } ->
      [ ("op", Str "bench"); ("kernel", Str kernel);
        ("sanitizer", Str sanitizer) ]
  in
  Obj ((("id", Int r.id) :: op_fields) @ backend_field)

let ( let* ) = Result.bind

let decode_request (v : Json.t) : (request, string) result =
  let* id = get_int "id" v in
  let* opname = get_str "op" v in
  let* backend =
    match member "backend" v with
    | None | Some Null -> Ok None
    | Some (Str s) ->
      (match backend_of_name s with
       | Some b -> Ok (Some b)
       | None -> Error (Printf.sprintf "backend %S: expected interp|jit" s))
    | Some _ -> Error "\"backend\": expected a string"
  in
  let* op =
    match opname with
    | "analyze" ->
      let* source = get_str "source" v in
      let* sanitizer = get_str "sanitizer" v in
      let* optimize = get_bool ~default:true "optimize" v in
      Ok (Analyze { source; sanitizer; optimize })
    | "fuzz" ->
      let* fz_seed = get_int "seed" v in
      let* inject = get_bool ~default:false "inject" v in
      Ok (Fuzz { fz_seed; inject })
    | "bench" ->
      let* kernel = get_str "kernel" v in
      let* sanitizer = get_str "sanitizer" v in
      Ok (Bench { kernel; sanitizer })
    | other -> Error (Printf.sprintf "op %S: unknown request op" other)
  in
  Ok { id; op; backend }

type response = {
  rs_id : int;
  rs_ok : bool;
  rs_outcome : string;
  rs_detected : bool;
  rs_cycles : int;
  rs_reports : int;
  rs_error : string;
}

let encode_response (r : response) : Json.t =
  Obj
    [ ("id", Int r.rs_id);
      ("status", Str (if r.rs_ok then "ok" else "error"));
      ("outcome", Str r.rs_outcome);
      ("detected", Bool r.rs_detected);
      ("cycles", Int r.rs_cycles);
      ("reports", Int r.rs_reports);
      ("error", Str r.rs_error) ]

let decode_response (v : Json.t) : (response, string) result =
  let* rs_id = get_int "id" v in
  let* status = get_str "status" v in
  let* rs_outcome = get_str "outcome" v in
  let* rs_detected = get_bool "detected" v in
  let* rs_cycles = get_int "cycles" v in
  let* rs_reports = get_int "reports" v in
  let* rs_error = get_str "error" v in
  match status with
  | "ok" | "error" ->
    Ok { rs_id; rs_ok = String.equal status "ok"; rs_outcome; rs_detected;
         rs_cycles; rs_reports; rs_error }
  | other -> Error (Printf.sprintf "status %S: expected ok|error" other)

(* --- stream framing -------------------------------------------------------- *)

type line =
  | Request of request
  | Flush
  | Snapshot
  | Shutdown

let decode_line (raw : string) : (line, string) result =
  if String.trim raw = "" then Ok Flush
  else
    let* v = parse raw in
    let* opname = get_str "op" v in
    match opname with
    | "flush" -> Ok Flush
    | "snapshot" -> Ok Snapshot
    | "shutdown" -> Ok Shutdown
    | _ ->
      let* r = decode_request v in
      Ok (Request r)
