(* Always-on, near-zero-overhead runtime telemetry.

   One [t] lives on every [Vm.State.t].  Three families of data:

   - per-check-site counters, keyed by the stable site ids assigned at
     instrumentation time ([Tir.Ir.fresh_site]): how many times the site's
     check EXECUTED, how many times an execution was ELIDED by the
     redundant-check eliminator, and how many times it was COVERED by a
     hoisted or endpoint-grouped check.  The conservation law the test
     suite enforces is, per site:

       executed(O0) = executed(O2) + elided(O2) + covered(O2)

     i.e. the optimizer may move or remove work but never lose count of
     it;

   - named gauges (point-in-time levels such as high-water marks,
     merged by max);

   - a bounded ring buffer of events (alloc / free / check-fail / strip)
     with a compile-time capacity; once full, new events overwrite the
     oldest and the drop counter records the loss.

   The library depends only on the [Json] codec, so every layer (VM,
   sanitizer runtimes, harness, fuzzer) can thread it without cycles.
   All serialization is deterministic: sorted keys, submission-order
   events. *)

(* --- events ---------------------------------------------------------------- *)

type event_kind = Alloc | Free | Check_fail | Strip

(* [ev_a]/[ev_b] are kind-specific payloads:
   Alloc (addr, size) | Free (addr, 0) | Check_fail (site, addr)
   | Strip (addr, tag) *)
type event = { ev_kind : event_kind; ev_a : int; ev_b : int }

let event_kind_name = function
  | Alloc -> "alloc"
  | Free -> "free"
  | Check_fail -> "check-fail"
  | Strip -> "strip"

(* Compile-time ring capacity.  Small on purpose: the buffer answers
   "what happened just before the interesting moment", not "everything
   that happened". *)
let ring_capacity = 256

(* --- the live telemetry record -------------------------------------------- *)

type t = {
  (* per-site counters, indexed by site id; grown on demand *)
  mutable executed : int array;
  mutable elided : int array;
  mutable covered : int array;
  gauges : (string, int) Hashtbl.t;
  ring : event array;
  mutable ring_start : int;   (* index of the oldest event *)
  mutable ring_len : int;
  mutable dropped : int;
}

let dummy_event = { ev_kind = Alloc; ev_a = 0; ev_b = 0 }

let create () = {
  executed = [||];
  elided = [||];
  covered = [||];
  gauges = Hashtbl.create 16;
  ring = Array.make ring_capacity dummy_event;
  ring_start = 0;
  ring_len = 0;
  dropped = 0;
}

(* --- per-site counters ----------------------------------------------------- *)

let grow arr site =
  let n = Array.length arr in
  let n' = max (site + 1) (max 64 (2 * n)) in
  let arr' = Array.make n' 0 in
  Array.blit arr 0 arr' 0 n;
  arr'

let bump_executed t site =
  if site >= 0 then begin
    if site >= Array.length t.executed then t.executed <- grow t.executed site;
    Array.unsafe_set t.executed site (Array.unsafe_get t.executed site + 1)
  end

let bump_elided t site =
  if site >= 0 then begin
    if site >= Array.length t.elided then t.elided <- grow t.elided site;
    Array.unsafe_set t.elided site (Array.unsafe_get t.elided site + 1)
  end

let bump_covered t site =
  if site >= 0 then begin
    if site >= Array.length t.covered then t.covered <- grow t.covered site;
    Array.unsafe_set t.covered site (Array.unsafe_get t.covered site + 1)
  end

let site_get arr site = if site < Array.length arr then arr.(site) else 0

(* --- named gauges ---------------------------------------------------------- *)

let set_gauge t key v = Hashtbl.replace t.gauges key v

(* --- the event ring -------------------------------------------------------- *)

let record t kind a b =
  let ev = { ev_kind = kind; ev_a = a; ev_b = b } in
  if t.ring_len < ring_capacity then begin
    t.ring.((t.ring_start + t.ring_len) mod ring_capacity) <- ev;
    t.ring_len <- t.ring_len + 1
  end
  else begin
    (* full: overwrite the oldest and account for the loss *)
    t.ring.(t.ring_start) <- ev;
    t.ring_start <- (t.ring_start + 1) mod ring_capacity;
    t.dropped <- t.dropped + 1
  end

let events t =
  List.init t.ring_len (fun i ->
      t.ring.((t.ring_start + i) mod ring_capacity))

(* --- snapshots ------------------------------------------------------------- *)

type live = t

module Snapshot = struct
  type site_row = {
    s_site : int;
    s_executed : int;
    s_elided : int;
    s_covered : int;
  }

  type nonrec t = {
    sites : site_row list;          (* sorted by site id, nonzero rows *)
    counters : (string * int) list; (* sorted by key; only merges add *)
    gauges : (string * int) list;   (* sorted by key *)
    events : event list;            (* oldest first *)
    dropped : int;
  }

  let empty =
    { sites = []; counters = []; gauges = []; events = []; dropped = 0 }

  let sorted_assoc tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let capture (t : live) =
    let n =
      max (Array.length t.executed)
        (max (Array.length t.elided) (Array.length t.covered))
    in
    let sites = ref [] in
    for site = n - 1 downto 0 do
      let e = site_get t.executed site in
      let el = site_get t.elided site in
      let c = site_get t.covered site in
      if e <> 0 || el <> 0 || c <> 0 then
        sites :=
          { s_site = site; s_executed = e; s_elided = el; s_covered = c }
          :: !sites
    done;
    {
      sites = !sites;
      counters = [];
      gauges = sorted_assoc t.gauges;
      events = events t;
      dropped = t.dropped;
    }

  (* Merge in submission order: [a] happened-before [b].  Per-site and
     named counters add; gauges take the max (a high-water mark across
     runs is the highest of the runs); event streams concatenate, with
     overflow past the ring capacity counted as dropped -- exactly what
     one ring observing both runs would have kept. *)
  let merge a b =
    let merge_sites =
      let rec go xs ys =
        match xs, ys with
        | [], rest | rest, [] -> rest
        | x :: xs', y :: ys' ->
          if x.s_site < y.s_site then x :: go xs' ys
          else if y.s_site < x.s_site then y :: go xs ys'
          else
            { s_site = x.s_site;
              s_executed = x.s_executed + y.s_executed;
              s_elided = x.s_elided + y.s_elided;
              s_covered = x.s_covered + y.s_covered }
            :: go xs' ys'
      in
      go a.sites b.sites
    in
    let merge_assoc ~combine xs ys =
      let rec go xs ys =
        match xs, ys with
        | [], rest | rest, [] -> rest
        | ((kx, vx) as x) :: xs', ((ky, vy) as y) :: ys' ->
          let c = String.compare kx ky in
          if c < 0 then x :: go xs' ys
          else if c > 0 then y :: go xs ys'
          else (kx, combine vx vy) :: go xs' ys'
      in
      go xs ys
    in
    let evs = a.events @ b.events in
    let total = List.length evs in
    let over = max 0 (total - ring_capacity) in
    let rec drop n l =
      if n <= 0 then l
      else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
    in
    {
      sites = merge_sites;
      counters = merge_assoc ~combine:( + ) a.counters b.counters;
      gauges = merge_assoc ~combine:max a.gauges b.gauges;
      events = drop over evs;
      dropped = a.dropped + b.dropped + over;
    }

  (* The snapshot (and its pinned JSON) omit all-zero site rows, which
     makes "instrumented but never reached" indistinguishable from "not
     instrumented at all".  Coverage consumers need that distinction, so
     [sites_full] re-inflates the row list against the instrumented-site
     universe the caller got from [Tir.Ir.site_origins]: one row per
     known site (zeros where the snapshot has none), plus any nonzero
     rows for sites outside the given universe, sorted by site id. *)
  let sites_full ~sites (s : t) : site_row list =
    let known = List.sort_uniq compare sites in
    let rec go known rows =
      match known, rows with
      | [], rest -> rest
      | k :: known', [] ->
        { s_site = k; s_executed = 0; s_elided = 0; s_covered = 0 }
        :: go known' []
      | k :: known', r :: rows' ->
        if r.s_site < k then r :: go known rows'
        else if r.s_site > k then
          { s_site = k; s_executed = 0; s_elided = 0; s_covered = 0 }
          :: go known' rows
        else r :: go known' rows'
    in
    go known s.sites

  (* --- deterministic JSON ------------------------------------------------- *)

  (* Keys are sorted, integers only, no hash-order leakage -- so equal
     snapshots print byte-identical JSON by construction. *)
  let to_value (s : t) : Json.t =
    let open Json in
    let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs) in
    Obj
      [ ("sites",
         List
           (List.map
              (fun r ->
                 Obj
                   [ ("site", Int r.s_site);
                     ("executed", Int r.s_executed);
                     ("elided", Int r.s_elided);
                     ("covered", Int r.s_covered) ])
              s.sites));
        ("counters", ints s.counters);
        ("gauges", ints s.gauges);
        ("dropped", Int s.dropped);
        ("events",
         List
           (List.map
              (fun ev ->
                 Obj
                   [ ("kind", Str (event_kind_name ev.ev_kind));
                     ("a", Int ev.ev_a);
                     ("b", Int ev.ev_b) ])
              s.events)) ]

  let to_json (s : t) : string = Json.to_string Json.Compact (to_value s)

  (* Strict inverse of [to_value] -- used by the campaign checkpoint to
     restore a snapshot across a process restart.  It accepts exactly
     the five keys in the writer's order (the writer is the only
     producer), so [of_json (to_json s) = Some s] and anything else is
     [None] rather than a guess. *)
  let of_value (v : Json.t) : t option =
    let exception Bad in
    let int = function Json.Int n -> n | _ -> raise Bad in
    let list f = function Json.List l -> List.map f l | _ -> raise Bad in
    let ints = function
      | Json.Obj kvs -> List.map (fun (k, v) -> (k, int v)) kvs
      | _ -> raise Bad
    in
    let site = function
      | Json.Obj
          [ ("site", s_site); ("executed", s_executed);
            ("elided", s_elided); ("covered", s_covered) ] ->
        { s_site = int s_site; s_executed = int s_executed;
          s_elided = int s_elided; s_covered = int s_covered }
      | _ -> raise Bad
    in
    let event = function
      | Json.Obj [ ("kind", Json.Str kind); ("a", a); ("b", b) ] ->
        let ev_kind =
          match kind with
          | "alloc" -> Alloc
          | "free" -> Free
          | "check-fail" -> Check_fail
          | "strip" -> Strip
          | _ -> raise Bad
        in
        { ev_kind; ev_a = int a; ev_b = int b }
      | _ -> raise Bad
    in
    match v with
    | Json.Obj
        [ ("sites", sites); ("counters", counters); ("gauges", gauges);
          ("dropped", dropped); ("events", events) ] ->
      (try
         Some
           { sites = list site sites; counters = ints counters;
             gauges = ints gauges; dropped = int dropped;
             events = list event events }
       with Bad -> None)
    | _ -> None

  let of_json (src : string) : t option =
    match Json.parse src with Ok v -> of_value v | Error _ -> None

  (* --- the human --profile report ----------------------------------------- *)

  (* Top-N hottest check sites.  [label] maps a site id to its origin
     ("func.bN[i] intrinsic", from [Tir.Ir.site_origins]); sites the
     caller cannot label print as "site N". *)
  let report ?(top = 10) ~label fmt (s : t) =
    let rows =
      List.stable_sort
        (fun a b -> compare b.s_executed a.s_executed)
        s.sites
    in
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    let rows = take top rows in
    Format.fprintf fmt "  %8s %8s %8s  %s@." "executed" "elided" "covered"
      "site";
    List.iter
      (fun r ->
         let name =
           match label r.s_site with
           | Some l -> l
           | None -> Printf.sprintf "site %d" r.s_site
         in
         Format.fprintf fmt "  %8d %8d %8d  %s@." r.s_executed r.s_elided
           r.s_covered name)
      rows;
    if rows = [] then Format.fprintf fmt "  (no check sites executed)@."

  (* Compact difference summary, for attaching to fuzz repros: the
     counters/gauges/site totals where the two snapshots disagree. *)
  let delta_summary ?(limit = 6) a b : string =
    let diffs = ref [] in
    let note k va vb =
      if va <> vb then diffs := Printf.sprintf "%s %d->%d" k va vb :: !diffs
    in
    let keys xs ys =
      List.sort_uniq String.compare (List.map fst xs @ List.map fst ys)
    in
    let get xs k = match List.assoc_opt k xs with Some v -> v | None -> 0 in
    List.iter (fun k -> note k (get a.counters k) (get b.counters k))
      (keys a.counters b.counters);
    List.iter
      (fun k ->
         note ("gauge:" ^ k) (get a.gauges k) (get b.gauges k))
      (keys a.gauges b.gauges);
    let tot f s = List.fold_left (fun acc r -> acc + f r) 0 s.sites in
    note "sites:executed" (tot (fun r -> r.s_executed) a)
      (tot (fun r -> r.s_executed) b);
    note "sites:elided" (tot (fun r -> r.s_elided) a)
      (tot (fun r -> r.s_elided) b);
    note "sites:covered" (tot (fun r -> r.s_covered) a)
      (tot (fun r -> r.s_covered) b);
    let ds = List.rev !diffs in
    let n = List.length ds in
    let rec take k = function
      | [] -> []
      | _ when k <= 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    if ds = [] then "telemetry: no counter drift"
    else
      Printf.sprintf "telemetry drift: %s%s"
        (String.concat ", " (take limit ds))
        (if n > limit then Printf.sprintf " (+%d more)" (n - limit) else "")
end
