(** Structured tracing: nestable spans emitted as Chrome [trace_event]
    JSON, loadable in Perfetto / [chrome://tracing].

    Tracing is a process-wide switch ([start]/[stop]).  When off — the
    default — every entry point is a near-no-op (one load), so
    instrumented hot paths cost nothing in production runs and the traced
    computation behaves identically either way: the only side effects of
    tracing are clock reads and buffer appends.

    Events carry the process id (so a Perfetto view separates shard
    worker processes), thread id 0, and optional key/value attributes.
    Recording is not synchronized: call it from one domain per process. *)

type arg = Str of string | Int of int | Float of float | Bool of bool

val start : path:string -> unit
(** Begin buffering events; [stop] writes them to [path]. *)

val stop : unit -> unit
(** Write the buffered events as [{"traceEvents":[...]}] and disable
    tracing.  A no-op when tracing was never started. *)

val is_on : unit -> bool

val with_span :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a complete ("X") event covering
    its duration.  The span is recorded even when [f] raises (the exception
    is re-raised).  Spans nest by inclusion per process. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** Record an instant ("i") event. *)

val n_events : unit -> int
(** Number of events buffered so far (0 when off); for tests. *)

val json_escape : string -> string
(** [json_escape s] is the body of a JSON string literal holding [s],
    without the quotes.  It escapes the double quote, the backslash,
    newline, CR and tab by name and every other byte below 0x20 as
    [\u00XX]; every other byte, non-ASCII ones included, passes through.
    Every JSON writer in the program uses it. *)
