"""Branch prediction: direction predictors, BTB, RAS, and the registry."""
