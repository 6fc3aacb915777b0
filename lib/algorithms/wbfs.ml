let run ~pool ~graph ?handle ~schedule ~source () =
  let schedule = { schedule with Ordered.Schedule.delta = 1 } in
  Sssp_delta.run ~pool ~graph ?handle ~schedule ~source ()
