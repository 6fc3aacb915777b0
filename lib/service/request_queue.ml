type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
      (* signalled by [try_push], broadcast by [tick] and [close] *)
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  mutable ticks : int;
      (* bumped by every [tick]; a waiter compares it with the count it
         saw on entry, so only a tick that lands during its wait ends it *)
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Request_queue.create: capacity < 1";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
    ticks = 0;
  }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let length t = with_lock t (fun () -> Queue.length t.items)

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.add x t.items;
        Condition.signal t.nonempty;
        true
      end)

let tick t =
  with_lock t (fun () ->
      t.ticks <- t.ticks + 1;
      Condition.broadcast t.nonempty)

(* The consumer sleeps on [nonempty] itself, so a push wakes it at once.
   The loop re-checks its condition after every wake-up, because
   condition variables may wake spuriously. *)
let pop_batch t ~max ~wait =
  if max < 1 then invalid_arg "Request_queue.pop_batch: max < 1";
  with_lock t (fun () ->
      if wait then begin
        let seen = t.ticks in
        while Queue.is_empty t.items && (not t.closed) && t.ticks = seen do
          Condition.wait t.nonempty t.mutex
        done
      end;
      let batch = ref [] in
      let n = ref 0 in
      while (not (Queue.is_empty t.items)) && !n < max do
        batch := Queue.take t.items :: !batch;
        incr n
      done;
      List.rev !batch)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let is_closed t = with_lock t (fun () -> t.closed)
