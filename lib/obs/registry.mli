(** Named-metric registry: counters, gauges, and fixed-bucket histograms.

    A registry is a flat namespace of metrics identified by string name.
    Handles ([counter], [gauge], [histogram]) are obtained once and then
    updated without any lookup, so hot loops pay a single mutable-field
    write per event.

    A registry is single-writer: each engine owns its own, and the
    aggregation point merges them with [merge] in canonical (sorted-name)
    order — so the merged totals, and any text rendered from them, are
    byte-identical whatever the number of shard processes or the order
    their instances finished in was. *)

type counter
type gauge
type histogram

type t

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create.  Raises [Invalid_argument] if [name] is already
    registered with a different kind. *)

val gauge : t -> string -> gauge
val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are strictly increasing bucket upper limits; an implicit
    overflow bucket is appended.  Re-obtaining an existing histogram with
    different bounds raises [Invalid_argument]. *)

val incr : ?by:int -> counter -> unit
val set : counter -> int -> unit
val value : counter -> int

val gauge_add : gauge -> float -> unit
val gauge_set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_counts : histogram -> int array
(** Per-bucket counts, overflow bucket last; a copy. *)

val merge : into:t -> t -> unit
(** Add every metric of the source into [into], creating missing ones, in
    canonical (sorted-name) order.  Counters and histogram buckets add;
    gauges add (they accumulate seconds, bytes, and similar extensive
    quantities). *)

val to_json : t -> string
(** Deterministic dump: top-level [counters]/[gauges]/[histograms] objects,
    keys sorted. *)

val pp : Format.formatter -> t -> unit
(** One [name = value] line per metric, sorted. *)
