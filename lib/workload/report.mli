(** Table/series/JSON rendering for benchmark output, in the shape of
    the paper's Figure 4 series.  The ["proust-bench/v1"] JSON report
    derives its STM-counter fields from {!Stats.to_assoc}. *)

val header : unit -> unit
val row : name:string -> Runner.result -> unit
val section : string -> unit

(** A {!Stats} diff's {!Stats.to_assoc} pairs (one window's, or
    several windows' combined) as the JSON object every cell carries
    under ["stats"]. *)
val stats_json : (string * int) list -> Proust_obs.Json.t

(** One measured cell as a JSON object: run shape ([impl], [u], [o],
    [threads], …), timings, the {!Stats.to_assoc} counter diff, and the
    latency summary ([null] when metrics were off). *)
val json_cell : name:string -> Runner.result -> Proust_obs.Json.t

(** The report envelope: [{schema = "proust-bench/v1"; config; cells}].
    [config] carries run-level settings as caller-chosen fields. *)
val json_report :
  config:(string * Proust_obs.Json.t) list ->
  Proust_obs.Json.t list ->
  Proust_obs.Json.t

val write_json :
  file:string ->
  config:(string * Proust_obs.Json.t) list ->
  Proust_obs.Json.t list ->
  unit
