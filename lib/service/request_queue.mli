(** The service's bounded admission queue.

    Multi-producer (one thread per client connection), single-consumer
    (the batcher loop). Admission control is the whole point: {!try_push}
    never blocks — a full queue refuses the item and the caller answers
    [rejected] immediately, so a traffic spike degrades into fast
    rejections instead of unbounded memory growth and collapsing tail
    latency. Blocking happens only on the consumer side, in
    {!pop_batch ~wait:true}, and only while the queue is empty: the
    consumer sleeps on the queue's condition variable, so a push wakes it
    at once. {!tick} is the explicit idle
    wake-up (the batcher's ticker thread sends one every 50 ms).

    The concurrency invariants this structure must uphold are named and
    tested in docs/SERVICE.md §6 (I1–I3, I9). *)

type 'a t

(** [create ~capacity ()] is an empty queue admitting at most [capacity]
    items. Raises [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

val capacity : 'a t -> int

(** [length t] is the current depth (racy but exact under the mutex). *)
val length : 'a t -> int

(** [try_push t x] admits [x] unless the queue is full or closed.
    Never blocks; wakes the consumer. *)
val try_push : 'a t -> 'a -> bool

(** [pop_batch t ~max ~wait] drains up to [max] items in FIFO order.
    With [~wait:false] it never blocks and returns [[]] when the queue is
    empty. With [~wait:true] it first blocks until an item is queued,
    the queue is closed, or a {!tick} arrives {e during this wait}; only
    in the last two cases, with the queue still empty, does it return
    [[]]. A tick sent while no consumer was waiting is not remembered. *)
val pop_batch : 'a t -> max:int -> wait:bool -> 'a list

(** [tick t] wakes a consumer blocked in [pop_batch ~wait:true], which
    returns what is queued, possibly [[]]. *)
val tick : 'a t -> unit

(** [close t] wakes blocked consumers; subsequent pushes are refused and
    pops return the remaining items, then [[]] forever. *)
val close : 'a t -> unit

val is_closed : 'a t -> bool
