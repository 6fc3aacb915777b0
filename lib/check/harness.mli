(** The machinery every differential sweep shares. A sweep ({!Sweep},
    {!Dynamic}, {!Dsl_sweep}) supplies its case catalogue and schedule
    grid (an [enumerate] function that calls [visit] per point), its
    judge, its shrinker and its spec printers; the harness owns the
    chaos/race bracket, one pool per worker count, the budget and
    max-failures loop, the failure record, {!ddmin}, the repro-line
    printer, and the JSON / [--failures] / exit-code writer. *)

(** {1 Shrinking} *)

(** A probe budget, shared by the passes of one shrink. *)
type probes

val probes : max:int -> probes

(** [ddmin probes fails parts] minimizes [parts] while [fails] holds:
    the empty array first, then ever-finer complements (delta
    debugging). Each call of [fails] takes a probe; once [probes] is
    spent the smallest failing array so far is returned. Under the cap
    the result is 1-minimal. *)
val ddmin : probes -> ('a array -> bool) -> 'a array -> 'a array

(** {1 Repro lines} *)

(** [check_runner] and [words], each single-quoted for a POSIX shell
    unless it is a non-empty run of letters, digits and [_-./]. *)
val command_line : string list -> string

(** The flags every sweep shares, in one order: [check_runner MODE --seed
    --graph --workers --schedule EXTRA [--chaos] [--race]]. *)
val repro_line :
  seed:int ->
  chaos:bool ->
  race:bool ->
  mode:string list ->
  graph:string ->
  workers:int ->
  schedule:Ordered.Schedule.t ->
  string list ->
  string

(** {1 Schedule grids} *)

(** The product of [axes] over {!Ordered.Schedule.default}, first axis
    outermost. An axis maps a point to its variants along one knob and
    may read the knobs earlier axes set. *)
val grid : (Ordered.Schedule.t -> Ordered.Schedule.t list) list -> Ordered.Schedule.t list

(** Open buckets: 32 and 512 for lazy strategies, 128 for eager. *)
val open_buckets : Ordered.Schedule.t -> Ordered.Schedule.t list

(** Fusion thresholds: 1 and 1000 with fusion, 1000 otherwise. *)
val fusion_thresholds : Ordered.Schedule.t -> Ordered.Schedule.t list

(** {1 The sweep loop} *)

type ('config, 'lane) failure = {
  original : 'config;  (** The configuration the sweep visited. *)
  shrunk : 'config;  (** The minimized configuration; [original] if none. *)
  lane : 'lane;  (** Where [shrunk] fails. *)
  message : string;  (** What [shrunk]'s run reports. *)
  repro : string;  (** The [check_runner] line that replays [shrunk]. *)
}

type ('config, 'lane) summary = {
  configs_run : int;
  failures : ('config, 'lane) failure list;
  elapsed_seconds : float;
  budget_exhausted : bool;
  race_findings : int;  (** 0 unless [race] was set. *)
}

(** What a sweep hands the loop besides its enumeration. *)
type ('config, 'lane) sweep = {
  judge : pool:Parallel.Pool.t -> 'config -> (unit, 'lane * string) result;
      (** Run one configuration from scratch. *)
  shrink : pool:Parallel.Pool.t -> 'config -> 'config;
      (** A smaller configuration that still fails, or the argument. *)
  describe : 'config -> string;  (** Names the configuration in logs. *)
  headline : 'lane -> string -> string;
      (** One-line failure text from a lane and a message. *)
  repro : 'config -> string;
}

(** [run ~workers ... sweep enumerate] creates one pool per worker count
    and calls [enumerate ~visit ~report] with seeded chaos and/or the
    race detector switched on.
    [visit config judge] runs [judge ~pool (config w)] on every pool in
    worker order, stopping the sweep once [budget] seconds have passed.
    A failure is logged, shrunk, replayed for the lane and message of
    the shrunk configuration (the original stands if it passes), and
    recorded. [report] records a failure found outside any run, unshrunk,
    at the first worker count. The sweep stops at [max_failures]. *)
val run :
  workers:int list ->
  budget:float ->
  seed:int ->
  max_failures:int ->
  chaos:bool ->
  race:bool ->
  log:(string -> unit) ->
  ('config, 'lane) sweep ->
  (visit:
     ((int -> 'config) ->
     (pool:Parallel.Pool.t -> 'config -> (unit, 'lane * string) result) ->
     unit) ->
  report:((int -> 'config) -> 'lane -> string -> unit) ->
  unit) ->
  ('config, 'lane) summary

(** {1 Output} *)

(** The JSON summary: [mode], [seed], [before], [configs_run], [after],
    [failures] (each rendered by [failure]), [race_findings],
    [elapsed_seconds], [budget_exhausted]. *)
val summary_json :
  ?mode:string ->
  seed:int ->
  ?before:(string * Support.Json.t) list ->
  ?after:(string * Support.Json.t) list ->
  (('config, 'lane) failure -> (string * Support.Json.t) list) ->
  ('config, 'lane) summary ->
  Support.Json.t

(** Prints [json] on stdout and to [json_path], writes each failure's
    headline and repro line to [failures_path] if there are failures,
    and returns the exit code: 1 on a failure or race finding, else 0. *)
val emit :
  ?json_path:string ->
  ?failures_path:string ->
  headline:('lane -> string -> string) ->
  Support.Json.t ->
  ('config, 'lane) summary ->
  int

(** [replay ... run] runs [run w] per worker count under chaos/race,
    printing [ok: N workers] or [FAIL: N workers: MESSAGE] and any race
    findings; returns the exit code like {!emit}. *)
val replay :
  seed:int ->
  chaos:bool ->
  race:bool ->
  workers:int list ->
  (int -> (unit, string) result) ->
  int
