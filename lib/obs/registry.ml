(* Named-metric registry (see registry.mli).

   The representation is deliberately boring: a hash table from name to a
   mutable metric cell.  Handles are the cells themselves, so updating a
   metric is one mutable-field write — no lookup, no allocation — which is
   what lets the engine keep its counters hot-path cheap.

   Determinism: [merge] and every rendering function traverse the table in
   sorted-name order, so aggregating N per-domain registries produces the
   same bytes regardless of how the domains interleaved or how many there
   were.  (Counters and bucket counts are integers; gauges are float sums
   whose addition order is fixed by the canonical traversal.) *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* strictly increasing upper limits *)
  h_counts : int array;    (* length = Array.length h_bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %s already registered with another kind"
       name)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> kind_clash name
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> kind_clash name
  | None ->
      let g = { g_name = name; g_value = 0. } in
      Hashtbl.replace t.tbl name (Gauge g);
      g

let default_bounds = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let histogram ?(bounds = default_bounds) t name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg
          (Printf.sprintf "Obs.Registry.histogram: bounds of %s not increasing"
             name))
    bounds;
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) ->
      if h.h_bounds <> bounds then
        invalid_arg
          (Printf.sprintf
             "Obs.Registry.histogram: %s re-registered with different bounds"
             name);
      h
  | Some _ -> kind_clash name
  | None ->
      let h =
        { h_name = name; h_bounds = Array.copy bounds;
          h_counts = Array.make (Array.length bounds + 1) 0; h_count = 0;
          h_sum = 0. }
      in
      Hashtbl.replace t.tbl name (Histogram h);
      h

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set c v = c.c_value <- v
let value c = c.c_value

let gauge_add g x = g.g_value <- g.g_value +. x
let gauge_set g x = g.g_value <- x
let gauge_value g = g.g_value

let observe h x =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x;
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || x <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_counts h = Array.copy h.h_counts

let sorted_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find src.tbl name with
      | Counter c -> incr ~by:c.c_value (counter into name)
      | Gauge g -> gauge_add (gauge into name) g.g_value
      | Histogram h ->
          let d = histogram ~bounds:h.h_bounds into name in
          Array.iteri (fun i n -> d.h_counts.(i) <- d.h_counts.(i) + n) h.h_counts;
          d.h_count <- d.h_count + h.h_count;
          d.h_sum <- d.h_sum +. h.h_sum)
    (sorted_names src)

(* ---------------- rendering ---------------- *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.6f" x

let json_string s = "\"" ^ Trace.json_escape s ^ "\""

let to_json t =
  let names = sorted_names t in
  let pick f =
    List.filter_map (fun n -> f n (Hashtbl.find t.tbl n)) names
  in
  let counters =
    pick (fun n -> function
      | Counter c -> Some (Printf.sprintf "%s:%d" (json_string n) c.c_value)
      | _ -> None)
  in
  let gauges =
    pick (fun n -> function
      | Gauge g -> Some (Printf.sprintf "%s:%s" (json_string n) (json_float g.g_value))
      | _ -> None)
  in
  let hists =
    pick (fun n -> function
      | Histogram h ->
          let arr f xs =
            String.concat "," (Array.to_list (Array.map f xs))
          in
          Some
            (Printf.sprintf
               "%s:{\"bounds\":[%s],\"counts\":[%s],\"count\":%d,\"sum\":%s}"
               (json_string n)
               (arr json_float h.h_bounds)
               (arr string_of_int h.h_counts)
               h.h_count (json_float h.h_sum))
      | _ -> None)
  in
  Printf.sprintf
    "{\"counters\":{%s},\"gauges\":{%s},\"histograms\":{%s}}"
    (String.concat "," counters)
    (String.concat "," gauges)
    (String.concat "," hists)

let pp ppf t =
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | Counter c -> Format.fprintf ppf "%s = %d@." name c.c_value
      | Gauge g -> Format.fprintf ppf "%s = %.6f@." name g.g_value
      | Histogram h ->
          Format.fprintf ppf "%s = count:%d sum:%.6f@." name h.h_count h.h_sum)
    (sorted_names t)
